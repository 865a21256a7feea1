//! Which CPU each thread of a run is allowed on.
//!
//! A request round trip between a client thread and a server thread on
//! *different* virtual CPUs of this kind of VM costs ~50 us, ~45 of them the
//! hypervisor waking a halted CPU; on the *same* CPU it costs ~9 us, all of
//! it the program's (syscalls, context switches, codec, index). Left alone,
//! the scheduler picks one or the other per run, and every served metric
//! reads 4-6x apart between runs of identical code. So the run pins itself:
//! the main thread — the one client, the in-process work — and every thread
//! it spawns (server worker, acceptor) to the first allowed CPU, and the
//! background maintenance engine to the second, where it runs beside the
//! served traffic and meets it only at a shard's writer mutex.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of::<Mask>()` bytes passed as `cpusetsize`, and pid 0 names
        // the calling thread; the kernel writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) -> bool {
        let mut mask: Mask = [0; 16];
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the `size_of::<Mask>()`
        // bytes passed as `cpusetsize`, only read by the kernel; pid 0 names
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

struct Placement {
    main: usize,
    engine: usize,
}

static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();

/// Pins the calling (main) thread; threads spawned from it inherit the pin.
pub fn pin_main_thread() {
    let cpus = sys::allowed();
    let placement = PLACEMENT.get_or_init(|| {
        let &main = cpus.first()?;
        let engine = cpus.get(1).copied().unwrap_or(main);
        sys::pin(main).then_some(Placement { main, engine })
    });
    if placement.is_none() {
        eprintln!("benchmark: could not pin threads to CPUs; served metrics may read bimodally");
    }
}

/// Runs `spawn` with the calling thread moved to the engine's CPU, so the
/// thread it spawns starts and stays there, then moves the caller back.
pub fn on_engine_cpu<R>(spawn: impl FnOnce() -> R) -> R {
    let Some(Some(placement)) = PLACEMENT.get() else {
        return spawn();
    };
    sys::pin(placement.engine);
    let result = spawn();
    sys::pin(placement.main);
    result
}
