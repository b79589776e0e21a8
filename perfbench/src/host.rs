//! The host fingerprint printed with every result, peak memory, and the
//! per-run scratch directory.

use std::path::{Path, PathBuf};

/// Where runs keep their data directories, relative to the working
/// directory (the checkout the benchmark runs from).
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// Where traced runs write their spans, relative to the working directory.
pub const TRACE_ROOT: &str = ".bench_out";

/// A fresh, process-scoped directory, removed when dropped — on success,
/// on error returns and on panics alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<root>/<label>-<pid>`, replacing any leftover of that name.
    ///
    /// # Errors
    /// If the directory cannot be created.
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared root behind only while another run uses it.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Keeps the calling thread, and every thread it starts meanwhile, on one
/// CPU: the highest-numbered one it may run on. Restores the thread's CPU
/// set on drop. A workload whose op is a chain of hand-offs between
/// threads (`commit_replicated`) otherwise measures how fast the host
/// wakes the other virtual CPU, which follows the host's other tenants.
#[derive(Debug)]
pub struct OneCpu {
    previous: Option<affinity::Mask>,
    cpu: Option<usize>,
}

impl OneCpu {
    /// Pins the calling thread. Where the CPU set cannot be read or set,
    /// nothing changes and [`Self::cpu`] is `None`.
    pub fn pin() -> Self {
        let previous = affinity::get();
        let cpu = previous.as_ref().and_then(|mask| {
            let cpu = affinity::highest(mask)?;
            affinity::set(&affinity::single(cpu)).then_some(cpu)
        });
        OneCpu { previous, cpu }
    }

    /// The CPU the thread runs on, if pinned.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let (Some(mask), Some(_)) = (&self.previous, self.cpu) {
            affinity::set(mask);
        }
    }
}

/// The calling thread's CPU set, through the C library.
#[cfg(target_os = "linux")]
mod affinity {
    /// Words of a `cpu_set_t`: 1,024 CPUs.
    const WORDS: usize = 16;

    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0; WORDS];
        // SAFETY: pid 0 names the calling thread; `mask` holds the
        // `WORDS * 8` bytes passed as its size.
        let ok = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } == 0;
        ok.then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: as in `get`; the mask is only read.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }

    pub fn highest(mask: &Mask) -> Option<usize> {
        (0..WORDS * 64)
            .rev()
            .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    pub fn single(cpu: usize) -> Mask {
        let mut mask = [0; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn highest(_: &Mask) -> Option<usize> {
        None
    }

    pub fn single(_: usize) -> Mask {}
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time the hypervisor gave to others between two
/// [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn bmi2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One line describing the host and the run's inputs: core count, kernel,
/// BMI2, the portable-kernel override, the data directory's filesystem
/// and the seed.
pub fn fingerprint(data_dir: &Path, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let portable = std::env::var("SFC_PORTABLE_KERNELS").unwrap_or_default();
    format!(
        "nproc={nproc} kernel={kernel} bmi2={} SFC_PORTABLE_KERNELS={portable:?} \
         data_dir_fs={} seed={seed}",
        bmi2(),
        fs_type(data_dir),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn one_cpu_pins_the_thread_and_its_children_and_restores() {
        let before = affinity::get().unwrap();
        {
            let pinned = OneCpu::pin();
            let cpu = pinned.cpu().unwrap();
            assert_eq!(Some(cpu), affinity::highest(&before));
            assert_eq!(affinity::get().unwrap(), affinity::single(cpu));
            let child = std::thread::spawn(|| affinity::get().unwrap());
            assert_eq!(child.join().unwrap(), affinity::single(cpu));
        }
        assert_eq!(affinity::get().unwrap(), before);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let root = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let dir = ScratchDir::create(&root, "a").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
        let result = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(&root, "b").unwrap();
            assert!(dir.path().exists());
            panic!("run failed");
        });
        assert!(result.is_err());
        assert!(!root.join(format!("b-{}", std::process::id())).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint(Path::new("."), 42);
        for key in [
            "nproc=",
            "kernel=",
            "bmi2=",
            "SFC_PORTABLE_KERNELS=",
            "data_dir_fs=",
            "seed=42",
        ] {
            assert!(f.contains(key), "{f}");
        }
        assert!(rss_peak_mb().unwrap() > 0.0);
    }
}
