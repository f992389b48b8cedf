//! The `host` block every result carries, and the process's peak RSS.
//!
//! Processor facts come from CPUID and the standard library; the peak
//! resident set from the kernel's status page for this process.

/// Facts about the machine and build a result was measured on.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    /// Idle-priority spinners keeping the vCPUs awake (see `awake`).
    pub idle_spinners: usize,
}

impl Host {
    pub fn probe() -> Host {
        let (l2_bytes, l3_bytes) = cache_sizes();
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            l2_bytes,
            l3_bytes,
            idle_spinners: 0,
        }
    }

    /// The `host` JSON object for a workload running `ranks` rank threads
    /// over `working_set_bytes` bytes of buffers per rank.
    pub fn to_json(&self, ranks: usize, working_set_bytes: u64) -> String {
        let residency = if self.l2_bytes > 0 && working_set_bytes <= self.l2_bytes {
            "fits L2: ns/B figures are cache-resident"
        } else if self.l3_bytes > 0 && working_set_bytes <= self.l3_bytes {
            "fits L3, not L2"
        } else {
            "exceeds the known caches"
        };
        format!(
            concat!(
                "{{\"cores\":{},\"ranks\":{},\"ranks_per_core\":{:.3},",
                "\"transport\":\"in-process channels (threads as ranks)\",\"idle_spinners\":{},",
                "\"build_profile\":\"{}\",\"rustc\":\"{}\",\"cpu_model\":\"{}\",",
                "\"l2_bytes\":{},\"l3_bytes\":{},\"working_set_bytes_per_rank\":{},",
                "\"working_set\":\"{}\",\"byte_counts\":\"computed from buffer sizes and program counters\"}}"
            ),
            self.cores,
            ranks,
            ranks as f64 / self.cores as f64,
            self.idle_spinners,
            if cfg!(debug_assertions) { "debug" } else { "release" },
            env!("CARTBENCH_RUSTC").replace('"', "'"),
            self.cpu_model.replace('"', "'"),
            self.l2_bytes,
            self.l3_bytes,
            working_set_bytes,
            residency
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for w in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// L2 and L3 sizes in bytes from CPUID leaf 4 (deterministic cache
/// parameters); 0 where the processor does not report them.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (u64, u64) {
    use std::arch::x86_64::__cpuid_count;
    let max_leaf = std::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 4 {
        return (0, 0);
    }
    let (mut l2, mut l3) = (0u64, 0u64);
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
        let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
        let line = (r.ebx & 0xfff) as u64 + 1;
        let sets = r.ecx as u64 + 1;
        let size = ways * parts * line * sets;
        match level {
            2 => l2 = size,
            3 => l3 = size,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (u64, u64) {
    (0, 0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. Read
/// from the kernel's per-process status rather than `getrusage`, whose
/// `ru_maxrss` survives `exec` and so can report the launching process's
/// peak (cargo's, when run through `cargo run`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
