//! Pinning the serving workloads to one CPU.
//!
//! A closed loop with one client has one runnable thread at a time: the
//! client waits while the engine thread serves, and the other way round.
//! Left free, the two threads land on the same CPU or on different ones as
//! the scheduler pleases, and a cross-CPU wake-up costs several times a
//! same-CPU switch: in repeated same-seed runs on a two-CPU host the
//! serving latencies spread several times wider unpinned. Pinning keeps
//! the hand-off the same in every run, so the numbers measure the program
//! rather than thread placement.
//!
//! There is no `libc` in the build, so the affinity calls are raw Linux
//! syscalls, as in `tmn-store`'s mmap. Elsewhere pinning is a no-op.

/// CPU-set words passed to the kernel (room for 1024 CPUs).
const WORDS: usize = 16;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::WORDS;

    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_GETAFFINITY: usize = 204;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETAFFINITY: usize = 122;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_GETAFFINITY: usize = 123;

    /// # Safety
    /// The arguments must follow the ABI of syscall `nr`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// # Safety
    /// The arguments must follow the ABI of syscall `nr`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x8") nr,
            options(nostack)
        );
        ret
    }

    /// The calling thread's CPU set.
    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: sched_getaffinity(0, len, ptr) writes at most `len` bytes
        // into `mask`, which is exactly `len` bytes long and lives across
        // the call; pid 0 is the calling thread.
        let ret = unsafe {
            syscall3(
                SYS_SCHED_GETAFFINITY,
                0,
                std::mem::size_of_val(&mask),
                mask.as_mut_ptr() as usize,
            )
        };
        (ret > 0).then_some(mask)
    }

    /// Set the calling thread's CPU set; threads it spawns later inherit it.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: sched_setaffinity(0, len, ptr) only reads `len` bytes from
        // `mask`, which is exactly that long and lives across the call.
        let ret = unsafe {
            syscall3(
                SYS_SCHED_SETAFFINITY,
                0,
                std::mem::size_of_val(mask),
                mask.as_ptr() as usize,
            )
        };
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::WORDS;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_mask: &[u64; WORDS]) -> bool {
        false
    }
}

/// While alive, the calling thread and every thread it spawns run on the
/// first CPU of its original set. Dropping it restores that set for the
/// calling thread (threads spawned meanwhile stay pinned).
pub struct OneCpu {
    saved: Option<[u64; WORDS]>,
}

impl OneCpu {
    pub fn pin() -> OneCpu {
        let saved = sys::get().and_then(|mask| {
            let word = mask.iter().position(|&w| w != 0)?;
            let mut one = [0u64; WORDS];
            one[word] = 1 << mask[word].trailing_zeros();
            sys::set(&one).then_some(mask)
        });
        if saved.is_none() {
            eprintln!("# could not pin to one CPU; serving numbers include cross-CPU hand-offs");
        }
        OneCpu { saved }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(mask) = &self.saved {
            sys::set(mask);
        }
    }
}
