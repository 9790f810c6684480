//! The host fingerprint every result file carries, and the process
//! readings (process CPU time, `/proc/self/status`) the metrics use.

use crate::stats;
use std::path::Path;

/// What a result was measured on. Two result sets are comparable only
/// when their [`host_key`](Fingerprint::host_key)s agree; the commit is
/// provenance and is expected to differ between a parent and a change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cores the process may use.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// Which of avx2, avx512f, avx512_vnni the CPU reports.
    pub simd: Vec<String>,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile of the build.
    pub profile: String,
    /// Git commit of the measured tree, or `none` outside a repository.
    pub commit: String,
}

/// SIMD flags the fingerprint records.
pub const SIMD_FLAGS: [&str; 3] = ["avx2", "avx512f", "avx512_vnni"];

impl Fingerprint {
    /// Reads the fingerprint of this process's host and build.
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let (cpu_model, simd) = parse_cpuinfo(&cpuinfo);
        Self {
            nproc: nproc(),
            cpu_model,
            simd,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "none".into()),
        }
    }

    /// Everything but the commit: the part two results must share to be
    /// compared.
    pub fn host_key(&self) -> String {
        format!(
            "nproc={} cpu={} simd={} rustc={} profile={}",
            self.nproc,
            self.cpu_model,
            self.simd.join(","),
            self.rustc,
            self.profile
        )
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        use seaice_obs::json::escape;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"simd\": [{}], \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            self.simd
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(", "),
            escape(&self.rustc),
            escape(&self.profile),
            escape(&self.commit)
        )
    }
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name and the recorded SIMD flags from `/proc/cpuinfo` text.
pub fn parse_cpuinfo(cpuinfo: &str) -> (String, Vec<String>) {
    let field = |name: &str| {
        cpuinfo.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == name).then(|| v.trim().to_string())
        })
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let flags = field("flags").unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    let simd = SIMD_FLAGS
        .iter()
        .filter(|f| have.contains(f))
        .map(|f| f.to_string())
        .collect();
    (model, simd)
}

/// The commit `HEAD` names in the nearest enclosing git repository.
fn git_commit(start: &Path) -> Option<String> {
    let start = start.canonicalize().ok()?;
    let git = start
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(git.join(reference)) {
        return Some(c.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// CPU seconds this process has used so far, over all its threads,
/// live and ended (`CLOCK_PROCESS_CPUTIME_ID`: the counter
/// `/proc/self/stat` reports in 10 ms ticks, at nanosecond resolution).
/// On a guest whose kernel accounts steal time, time the hypervisor
/// gave to other guests is not counted.
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec of the 64-bit Linux
    // layout, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| stats::parse_status_mib(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// Returns the allocator's free memory to the kernel, then resets the
/// kernel's peak-RSS mark (`VmHWM`) to the current resident size, so the
/// next reading covers only what follows. Without the trim, memory freed
/// by earlier repetitions stays resident and each repetition's peak
/// starts from wherever the last one left the heap. Returns whether the
/// kernel allowed the reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // free heap pages.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}
