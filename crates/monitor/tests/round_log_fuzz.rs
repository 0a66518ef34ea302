//! Hostile-input fuzzing of the round-log decoder: arbitrary bytes never
//! panic it, and it never allocates more than the bytes it was given.

use ipv6web_monitor::durable::{log_header, parse_frame, scan_log, LogTail, RoundLog};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's live heap bytes and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(n: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly the one `System` needs;
// the counting touches only const-initialized thread-local `Cell`s, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        // SAFETY: forwarded from our caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak heap growth it caused.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Walks every frame the way replay does, touching every entry.
fn decode_all(bytes: &[u8], header: &[u8], n_sites: usize) -> usize {
    let scan = scan_log(bytes, header, n_sites);
    let mut at = if scan.good_end == 0 { bytes.len() } else { header.len() };
    let mut entries = 0;
    while at < scan.good_end {
        let Ok((round, n)) = parse_frame(&bytes[at..], n_sites) else { break };
        if let ipv6web_monitor::durable::LoggedRound::Probed { entries: e, .. } = round {
            entries += e.count();
        }
        at += n;
    }
    entries
}

/// A valid header followed by `body`, with `frames` well-formed frames of
/// arbitrary payload spliced in (checksums right, contents arbitrary).
fn log_bytes(body: &[u8], frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = log_header("VP");
    for payload in frames {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&ipv6web_monitor::durable::fnv1a64(payload).to_le_bytes());
    }
    out.extend_from_slice(body);
    out
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_or_allocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        n_sites in 0usize..64,
    ) {
        // raw bytes, and the same bytes behind a valid header
        let header = log_header("VP");
        for input in [bytes.clone(), log_bytes(&bytes, &[])] {
            let (_, grew) = peak_growth(|| decode_all(&input, &header, n_sites));
            prop_assert_eq!(grew, 0);
        }
    }

    #[test]
    fn checksummed_garbage_frames_never_panic_or_allocate(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..32),
        n_sites in 0usize..300,
    ) {
        // frames that pass the checksum reach the payload decoder, whose
        // kind/week/lost/entry fields are then all attacker-chosen
        let input = log_bytes(&tail, &payloads);
        let header = log_header("VP");
        let (_, grew) = peak_growth(|| decode_all(&input, &header, n_sites));
        prop_assert_eq!(grew, 0);
        let scan = scan_log(&input, &header, n_sites);
        prop_assert!(scan.good_end <= input.len());
        prop_assert!(scan.tail != LogTail::Clean || scan.good_end == input.len());
    }

    #[test]
    fn opening_an_arbitrary_file_stays_within_its_length(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        headed in any::<bool>(),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("ipv6web-log-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vp.log");
        let bytes = if headed { log_bytes(&body, &[]) } else { body };
        std::fs::write(&path, &bytes).unwrap();
        let (opened, grew) = peak_growth(|| {
            RoundLog::open(&path, "VP", 50, |round| {
                std::hint::black_box(round);
            })
        });
        prop_assert!(opened.is_ok(), "open failed: {:?}", opened.err());
        // the one read buffer, plus path and header bookkeeping (the lower
        // bound shows the counter sees that buffer at all)
        prop_assert!(grew >= bytes.len(), "grew {} for a {}-byte file", grew, bytes.len());
        prop_assert!(grew <= bytes.len() + 1024, "grew {} for a {}-byte file", grew, bytes.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
