//! A minimal read-only `mmap(2)` wrapper with no libc dependency.
//!
//! The workspace vendors every external crate as a stub and the build has no
//! `libc`, so the mapping is made with raw Linux syscalls (inline asm) on
//! x86_64/aarch64. On any other target the "map" degrades to reading the
//! file into a 64-byte-aligned heap buffer — same API, same alignment
//! guarantees, one extra copy at open time.
//!
//! Safety argument for handing out `&[u8]` (and, after validation, `&[f32]` /
//! `&[f64]`) over the mapping:
//!
//! - The mapping is `PROT_READ` + `MAP_PRIVATE`: the kernel never lets safe
//!   code write through it. `MAP_PRIVATE` does not hide later writes to the
//!   file, and a file truncated under a mapping faults (`SIGBUS`) on the
//!   pages past its new end. So the store's writers never touch a file in
//!   place: each builds a temporary sibling and renames it over the path,
//!   and an open mapping keeps the old inode. Other programs that rewrite a
//!   mapped file in place are outside this contract; the formats are
//!   CRC-framed so that torn or bit-rotted content is detected rather than
//!   trusted.
//! - The pointer is page-aligned (4096 ≥ any alignment we cast to) and the
//!   length is fixed at open from `fstat`; slices never extend past it.
//! - `f32`/`f64` have no invalid bit patterns, so reinterpreting validated
//!   little-endian payload bytes is defined for any file content.
//! - The struct owns the mapping and unmaps in `Drop`; all slices borrow
//!   from `&self`, so the borrow checker keeps them from outliving it.

use std::fs::File;
use std::io;
use std::path::Path;

/// Alignment guaranteed for the start of a mapped (or fallback-read) file.
/// Page-aligned mappings exceed it; the heap fallback allocates to it.
pub const MAP_ALIGN: usize = 64;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") nr,
            options(nostack)
        );
        ret
    }

    /// Map `len` bytes of `fd` read-only. Returns the page-aligned base.
    pub fn mmap_readonly(fd: i32, len: usize) -> Result<*const u8, i32> {
        // SAFETY: all six arguments follow the mmap(2) ABI; addr=0 lets the
        // kernel pick a placement, and a PROT_READ|MAP_PRIVATE file mapping
        // cannot alias any Rust-owned memory.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *const u8)
        }
    }

    /// Unmap a region previously returned by [`mmap_readonly`].
    pub fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: (ptr, len) came from a successful mmap_readonly and is
        // unmapped exactly once (owned by `Mmap`, called from Drop).
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

/// A 64-byte-aligned owned byte buffer — the mmap fallback, and a test
/// helper for feeding decoder fuzzers buffers with mapping-grade alignment.
pub struct AlignedBytes {
    ptr: *mut u8,
    len: usize,
}

impl AlignedBytes {
    /// Copy `bytes` into a fresh `MAP_ALIGN`-aligned allocation.
    pub fn from_slice(bytes: &[u8]) -> AlignedBytes {
        if bytes.is_empty() {
            return AlignedBytes { ptr: std::ptr::null_mut(), len: 0 };
        }
        let layout = std::alloc::Layout::from_size_align(bytes.len(), MAP_ALIGN)
            .expect("aligned layout for file buffer");
        // SAFETY: layout has nonzero size; allocation failure aborts below.
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: `ptr` points to a fresh allocation of `bytes.len()` bytes.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, bytes.len()) };
        AlignedBytes { ptr, len: bytes.len() }
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            // SAFETY: (ptr, len) is an owned, initialized allocation.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            let layout = std::alloc::Layout::from_size_align(self.len, MAP_ALIGN)
                .expect("layout was valid at alloc time");
            // SAFETY: same (ptr, layout) pair as the alloc call.
            unsafe { std::alloc::dealloc(self.ptr, layout) };
        }
    }
}

// SAFETY: the buffer is plain owned bytes; no interior mutability.
unsafe impl Send for AlignedBytes {}
// SAFETY: read-only access through &self.
unsafe impl Sync for AlignedBytes {}

enum Backing {
    /// Kernel mapping: (page-aligned base, mapped length).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped { ptr: *const u8, len: usize },
    /// Heap fallback (non-Linux targets, or mmap refusal).
    Heap(AlignedBytes),
    Empty,
}

/// A read-only memory view of a whole file. Derefs to `&[u8]`; the base
/// pointer is at least [`MAP_ALIGN`]-aligned.
pub struct Mmap {
    backing: Backing,
}

impl Mmap {
    /// Map `path` read-only. Empty files produce an empty view without a
    /// kernel mapping (mmap of length 0 is EINVAL).
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Mmap { backing: Backing::Empty });
        }
        if len > usize::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"));
        }
        Self::map_file(file, len as usize)
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn map_file(file: File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        match sys::mmap_readonly(file.as_raw_fd(), len) {
            Ok(ptr) => Ok(Mmap { backing: Backing::Mapped { ptr, len } }),
            // ENODEV/EACCES etc. (e.g. the filesystem refuses mappings):
            // degrade to the heap copy rather than failing the open.
            Err(_) => Self::read_fallback(file, len),
        }
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    fn map_file(file: File, len: usize) -> io::Result<Mmap> {
        Self::read_fallback(file, len)
    }

    fn read_fallback(mut file: File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Mmap { backing: Backing::Heap(AlignedBytes::from_slice(&buf)) })
    }

    /// True when backed by a kernel mapping (false: heap fallback / empty).
    pub fn is_kernel_mapped(&self) -> bool {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if let Backing::Mapped { .. } = &self.backing {
            return true;
        }
        false
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            // SAFETY: (ptr, len) is a live PROT_READ mapping owned by self.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(buf) => buf,
            Backing::Empty => &[],
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if let Backing::Mapped { ptr, len } = self.backing {
            sys::munmap(ptr, len);
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("kernel_mapped", &self.is_kernel_mapped())
            .finish()
    }
}

// SAFETY: the view is immutable for the lifetime of the struct (PROT_READ
// mapping or owned bytes); sharing across threads is read-only.
unsafe impl Send for Mmap {}
// SAFETY: see Send.
unsafe impl Sync for Mmap {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmn-store-mmap-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn maps_file_contents() {
        let p = tmp("basic.bin");
        std::fs::write(&p, b"hello mmap").unwrap();
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&m[..], b"hello mmap");
        assert_eq!(m.as_ptr() as usize % MAP_ALIGN, 0, "base not {MAP_ALIGN}-aligned");
    }

    #[test]
    fn kernel_mapping_used_on_linux() {
        let p = tmp("kernel.bin");
        std::fs::write(&p, vec![7u8; 10_000]).unwrap();
        let m = Mmap::open(&p).unwrap();
        if cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))) {
            assert!(m.is_kernel_mapped(), "expected a real mmap on this target");
        }
        assert!(m.iter().all(|&b| b == 7));
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn empty_file_maps_empty() {
        let p = tmp("empty.bin");
        std::fs::write(&p, b"").unwrap();
        let m = Mmap::open(&p).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_kernel_mapped());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(Mmap::open(Path::new("/nonexistent/tmn-store-test")).is_err());
    }

    #[test]
    fn aligned_bytes_roundtrip() {
        let a = AlignedBytes::from_slice(&[1, 2, 3]);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.as_ptr() as usize % MAP_ALIGN, 0);
        let e = AlignedBytes::from_slice(&[]);
        assert!(e.is_empty());
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let p = tmp("shared.bin");
        std::fs::write(&p, (0u16..2048).flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>())
            .unwrap();
        let m = std::sync::Arc::new(Mmap::open(&p).unwrap());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || m.iter().map(|&b| b as u64).sum::<u64>()));
        }
        let sums: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }
}
