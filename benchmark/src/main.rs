fn main() -> std::process::ExitCode {
    csv_benchmark::cli::main()
}
