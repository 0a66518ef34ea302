//! Process counters read by the benchmark itself, so the timed runs need no
//! metric collection inside the program: CPU time from `getrusage`, peak
//! resident set from `/proc/self/status` and I/O bytes from `/proc/self/io`.
//!
//! Every operation runs in a fresh process, so each counter covers that
//! operation alone.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// User plus system CPU seconds this process has used so far, all threads
/// included (joined ones too).
pub fn cpu_seconds() -> Result<f64, String> {
    let mut ru = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the
    // kernel's `struct rusage` on Linux (`time_t` and `suseconds_t` are both
    // `long` there), and `getrusage` writes at most that one struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(secs(&ru.ru_utime) + secs(&ru.ru_stime))
}

/// Peak resident set of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Result<u64, String> {
    field(&read("/proc/self/status")?, "VmHWM:")
}

/// Bytes this process has passed to `write`/`read` system calls so far
/// (`wchar`, `rchar`): what it wrote and read, page cache or not.
#[derive(Debug, Clone, Copy)]
pub struct Io {
    pub wchar: u64,
    pub rchar: u64,
}

impl Io {
    pub fn now() -> Result<Io, String> {
        let text = read("/proc/self/io")?;
        Ok(Io { wchar: field(&text, "wchar:")?, rchar: field(&text, "rchar:")? })
    }

    /// Bytes written and read since `earlier`.
    pub fn since(self, earlier: Io) -> Io {
        Io {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            rchar: self.rchar.saturating_sub(earlier.rchar),
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// The first number on the line of `text` that starts with `key`.
fn field(text: &str, key: &str) -> Result<u64, String> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .ok_or_else(|| format!("no {key} line in {text:?}"))?;
    let number = line.split_whitespace().next().unwrap_or("");
    number.parse().map_err(|e| format!("{key} {number:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let cpu0 = cpu_seconds().expect("getrusage works");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds().unwrap() > cpu0, "{x}");
        assert!(peak_rss_kb().unwrap() > 0);

        let io0 = Io::now().unwrap();
        let path = std::env::temp_dir().join(format!("perfbench-io-{}", std::process::id()));
        std::fs::write(&path, [7u8; 4096]).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(Io::now().unwrap().since(io0).wchar >= 4096);
    }
}
