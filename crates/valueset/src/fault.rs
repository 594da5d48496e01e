//! Deterministic fault injection for every I/O path in this crate.
//!
//! A [`FaultPlan`] is a small set of rules — *which operation*, *which
//! file*, *which fault, how often* — attached to [`crate::IoOptions`] and
//! consulted by the one place all physical I/O flows through: the
//! [`FaultFile`] read wrapper beneath [`crate::BlockReader`], the
//! `write_all_at`/open helpers used by [`crate::ValueFileWriter`] and the
//! spill writer, and the open path of every reader.
//!
//! Rules match a stream's *label*, not only its file: a stream inside a
//! segment is labelled `seg-00-0003.indv[attr-00001]` ([`crate::Extent`]),
//! and the byte offsets of its read rules count from the stream's first
//! byte. So `read:attr-00001:flip=40` flips byte 40 of attribute 1's stream
//! wherever it lies, and `fsync:attr-00001:fail` fails the fsync of the
//! segment that holds it. Because every value
//! file is read through the same wrapper, a plan injected at the bottom
//! exercises the error arms of the whole stack — block reader, frame and
//! format decoders, external-sort merge, discovery merge — on the
//! consuming thread.
//!
//! The wrapper is also where *transient* faults are healed: an
//! `ErrorKind::Interrupted` (injected or real) is retried in place and an
//! injected short read is absorbed by the caller's fill loop; both count
//! into [`ReadStats::io_retries`] so a degraded run is visible in the
//! metrics without being fatal.
//!
//! ## Plan syntax
//!
//! A plan is a comma-separated list of `op:match:kind` rules:
//!
//! ```text
//! read:attr-00002:flip=57 , write:run-:enospc , read:*:eintr@3
//! ```
//!
//! * `op` — `read`, `write`, `open`, or `fsync`.
//! * `match` — a substring of the label's last component: the file or
//!   directory name, with any `[stream]` label (`seg-00-0003.indv[attr-00001]`),
//!   never the directories above it, so a rule naming `comp-` cannot fire
//!   under a directory whose name holds `comp-`. `*` matches everything,
//!   and a trailing `$` anchors the substring at the end of that component
//!   (`workdir$` matches the directory's own fsync but none of the files
//!   inside it).
//! * `kind` — `eintr` (read/write), `short` (read), `truncate=N` (read:
//!   the file appears to end at byte `N`), `flip=N` (read: one bit of
//!   byte `N` is flipped, the same bit on every run), `enospc` (write),
//!   `fail` (open/fsync), `crash=N` (write: the Nth matching write tears
//!   mid-buffer and every later matching write, fsync or rename fails —
//!   the process-visible shape of dying mid-export; a publishing rename
//!   counts as one matching write, as does the write of a segment's
//!   trailer, so sweeping N dies at every step of a commit and at the
//!   first write after it).
//! * an optional `@count` fires the rule that many times (default once;
//!   `truncate` is persistent).

use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::block::ReadStats;

/// Operations a rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultOp {
    Read,
    Write,
    Open,
    Fsync,
}

/// The fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Clamp a read to roughly half its requested length (min 1 byte):
    /// the caller's fill loop must absorb it.
    ShortRead,
    /// `ErrorKind::Interrupted`: the wrapper must retry transparently.
    Interrupted,
    /// `ENOSPC` on a write.
    NoSpace,
    /// Reads behave as if the file ended at byte `N`.
    TruncateAt(u64),
    /// One bit of byte `N` (a fixed hash of `N` picks it) is flipped on
    /// the read that delivers it.
    BitFlipAt(u64),
    /// The open (or fsync) itself fails.
    FailOp,
    /// The Nth matching write aborts mid-buffer (a torn prefix reaches
    /// the file) and every later matching write or fsync fails — the
    /// process-visible shape of crashing mid-export.
    Crash,
}

#[derive(Debug)]
struct FaultRule {
    op: FaultOp,
    /// Substring of the last path component; `*` matches everything.
    matcher: String,
    kind: FaultKind,
    /// Remaining firings; `u64::MAX` means unlimited.
    remaining: AtomicU64,
    /// Latched once a `crash=N` rule has fired: the write path is dead
    /// for every later matching write or fsync.
    crashed: AtomicBool,
}

impl FaultRule {
    fn matches(&self, op: FaultOp, path: &Path) -> bool {
        self.op == op && self.matches_path(path)
    }

    /// Whether the rule names `path`: its last component — a file or
    /// directory name, with any `[stream]` label — never the directories
    /// above it.
    fn matches_path(&self, path: &Path) -> bool {
        if self.matcher == "*" {
            return true;
        }
        let name = path
            .file_name()
            .unwrap_or(path.as_os_str())
            .to_string_lossy();
        match self.matcher.strip_suffix('$') {
            Some(tail) => name.ends_with(tail),
            None => name.contains(&self.matcher),
        }
    }

    /// Consumes one firing; `false` once the budget is spent.
    fn take(&self) -> bool {
        loop {
            let cur = self.remaining.load(Ordering::Relaxed);
            if cur == 0 {
                return false;
            }
            if cur == u64::MAX {
                return true; // unlimited
            }
            if self
                .remaining
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// One more matching write-side op against a `crash=N` rule: `None`
    /// while the process is alive, `Some(true)` for the Nth op (the crash
    /// itself, which latches), `Some(false)` for every op after it.
    fn crash_step(&self) -> Option<bool> {
        if self.crashed.load(Ordering::Relaxed) {
            return Some(false);
        }
        if self.take_last() {
            self.crashed.store(true, Ordering::Relaxed);
            return Some(true);
        }
        None
    }

    /// Decrements the budget; `true` only for the call that consumed the
    /// *final* firing (the Nth matching op of a `crash=N` rule).
    fn take_last(&self) -> bool {
        loop {
            let cur = self.remaining.load(Ordering::Relaxed);
            if cur == 0 || cur == u64::MAX {
                return false;
            }
            if self
                .remaining
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return cur == 1;
            }
        }
    }
}

/// What [`FaultPlan::before_read`] tells the wrapper to do.
pub(crate) enum ReadCheck {
    /// Read up to `want` bytes; `shortened` when a short-read fault
    /// clamped the request (counted as an absorbed retry).
    Proceed { want: usize, shortened: bool },
    /// The (injected) file end was reached.
    Eof,
    /// Fail the read with this error (`Interrupted` is retried in place).
    Fail(io::Error),
}

/// A deterministic fault plan. See the module docs for the rule
/// syntax. The plan is `Sync`: one `Arc<FaultPlan>` in
/// [`crate::IoOptions`] serves every reader, writer, and worker thread of
/// a run, and [`FaultPlan::fired`] reports which rules actually fired.
#[derive(Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    fired: Mutex<Vec<String>>,
}

/// Cap on the fired-log length: sweeps that trip the same persistent rule
/// thousands of times must not grow without bound.
const FIRED_LOG_CAP: usize = 256;

impl FaultPlan {
    /// Parses a comma-separated rule list (see the module docs). Errors
    /// describe the offending rule; an empty spec is a valid empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        // lint: allow(hot_alloc) — parse time, once per plan
        let mut rules = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            rules.push(parse_rule(part)?);
        }
        Ok(FaultPlan {
            rules,
            // lint: allow(hot_alloc) — parse time, once per plan
            fired: Mutex::new(Vec::new()),
        })
    }

    /// Human-readable descriptions of every fault that actually fired, in
    /// firing order (capped at a few hundred entries).
    pub fn fired(&self) -> Vec<String> {
        // lint: allow(hot_alloc) — reporting accessor, not on any I/O path
        lock(&self.fired).clone()
    }

    /// Number of faults that have fired so far.
    pub fn fired_count(&self) -> usize {
        lock(&self.fired).len()
    }

    fn note(&self, message: String) {
        let mut log = lock(&self.fired);
        if log.len() < FIRED_LOG_CAP {
            log.push(message);
        }
    }

    /// Consulted before a read of `want` bytes at `pos`.
    pub(crate) fn before_read(&self, path: &Path, pos: u64, want: usize) -> ReadCheck {
        let mut want = want;
        let mut shortened = false;
        for rule in &self.rules {
            if !rule.matches(FaultOp::Read, path) {
                continue;
            }
            match rule.kind {
                FaultKind::Interrupted if rule.take() => {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("read:eintr:{}@{pos}", path.display()));
                    return ReadCheck::Fail(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected EINTR",
                    ));
                }
                FaultKind::ShortRead if want > 1 && rule.take() => {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("read:short:{}@{pos}", path.display()));
                    want = (want / 2).max(1);
                    shortened = true;
                }
                FaultKind::TruncateAt(n) => {
                    if pos >= n {
                        if rule.take() {
                            // lint: allow(hot_alloc) — cold fault path
                            self.note(format!("read:truncate={n}:{}", path.display()));
                        }
                        return ReadCheck::Eof;
                    }
                    want = want.min(usize::try_from(n - pos).unwrap_or(usize::MAX));
                }
                _ => {}
            }
        }
        ReadCheck::Proceed { want, shortened }
    }

    /// Consulted after a read that delivered `buf` starting at `pos`.
    pub(crate) fn after_read(&self, path: &Path, pos: u64, buf: &mut [u8]) {
        for rule in &self.rules {
            if !rule.matches(FaultOp::Read, path) {
                continue;
            }
            if let FaultKind::BitFlipAt(n) = rule.kind {
                let end = pos + buf.len() as u64;
                if n >= pos && n < end && rule.take() {
                    let bit = (mix(FLIP_SEED ^ n) % 8) as u8;
                    buf[(n - pos) as usize] ^= 1 << bit;
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("read:flip={n}.{bit}:{}", path.display()));
                }
            }
        }
    }

    /// Consulted before a `write_all` of `len` bytes.
    pub(crate) fn before_write(&self, path: &Path, len: usize) -> WriteCheck {
        for rule in &self.rules {
            if !rule.matches(FaultOp::Write, path) {
                continue;
            }
            match rule.kind {
                FaultKind::NoSpace if rule.take() => {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("write:enospc:{}", path.display()));
                    // ENOSPC, spelled as the OS would report it.
                    return WriteCheck::Fail(io::Error::from_raw_os_error(28));
                }
                FaultKind::Interrupted if rule.take() => {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("write:eintr:{}", path.display()));
                    return WriteCheck::Interrupted;
                }
                FaultKind::Crash => match rule.crash_step() {
                    Some(true) => {
                        // lint: allow(hot_alloc) — cold fault path
                        self.note(format!("write:crash:{}", path.display()));
                        return WriteCheck::Crash { torn: len / 2 };
                    }
                    Some(false) => return WriteCheck::Fail(crash_error()),
                    None => {}
                },
                _ => {}
            }
        }
        WriteCheck::Proceed
    }

    /// Consulted before an `fsync` of `path`, which holds the streams
    /// labelled `streams`; `Some(e)` fails it. A rule matches the file or
    /// any stream in it. A latched `crash=N` rule also kills matching
    /// fsyncs — after a crash nothing on that path reaches the disk.
    pub(crate) fn before_fsync(&self, path: &Path, streams: &[PathBuf]) -> Option<io::Error> {
        let names = || std::iter::once(path).chain(streams.iter().map(PathBuf::as_path));
        for rule in &self.rules {
            match rule.kind {
                FaultKind::FailOp
                    if rule.op == FaultOp::Fsync
                        && names().any(|name| rule.matches_path(name))
                        && rule.take() =>
                {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("fsync:fail:{}", path.display()));
                    return Some(io::Error::other("injected fsync failure"));
                }
                FaultKind::Crash
                    if rule.crashed.load(Ordering::Relaxed)
                        && names().any(|name| rule.matches_path(name)) =>
                {
                    return Some(crash_error());
                }
                _ => {}
            }
        }
        None
    }

    /// Consulted before a rename that publishes `from`. Only `crash=N`
    /// write rules apply: the rename counts as one more matching write (so
    /// a sweep over N also dies between two renames of one commit), and a
    /// latched crash fails it — a dead process renames nothing.
    pub(crate) fn before_rename(&self, from: &Path) -> Option<io::Error> {
        for rule in &self.rules {
            if rule.kind != FaultKind::Crash || !rule.matches(FaultOp::Write, from) {
                continue;
            }
            if let Some(first) = rule.crash_step() {
                if first {
                    // lint: allow(hot_alloc) — cold fault path
                    self.note(format!("rename:crash:{}", from.display()));
                }
                return Some(crash_error());
            }
        }
        None
    }

    /// Consulted before opening (or creating) `path`.
    pub(crate) fn before_open(&self, path: &Path) -> Option<io::Error> {
        for rule in &self.rules {
            if rule.matches(FaultOp::Open, path) && rule.kind == FaultKind::FailOp && rule.take() {
                // lint: allow(hot_alloc) — cold fault path
                self.note(format!("open:fail:{}", path.display()));
                return Some(io::Error::other("injected open failure"));
            }
        }
        None
    }
}

/// What [`FaultPlan::before_write`] tells the writing wrapper to do.
pub(crate) enum WriteCheck {
    /// Write the whole buffer.
    Proceed,
    /// `ErrorKind::Interrupted`: the wrapper retries in place.
    Interrupted,
    /// Fail the write with this error; nothing reaches the file.
    Fail(io::Error),
    /// A `crash=N` rule fired: write only the first `torn` bytes of the
    /// buffer, then fail — the on-disk shape of dying mid-`write(2)`.
    Crash {
        /// Byte count of the torn prefix that reaches the file.
        torn: usize,
    },
}

/// The error every post-crash operation surfaces.
fn crash_error() -> io::Error {
    io::Error::other("injected crash: write path aborted")
}

/// Arbitrary odd constant hashed with a `flip=N` offset: every run flips
/// the same bit of byte `N`.
const FLIP_SEED: u64 = 0x5EED_0F1D_ECDE_2006;

fn parse_rule(part: &str) -> Result<FaultRule, String> {
    // lint: allow(hot_alloc) — parse-time only
    let fields: Vec<&str> = part.splitn(3, ':').collect();
    let [op, matcher, kind_spec] = fields[..] else {
        // lint: allow(hot_alloc) — parse-time error path
        return Err(format!("rule `{part}` is not `op:match:kind`"));
    };
    let op = match op {
        "read" => FaultOp::Read,
        "write" => FaultOp::Write,
        "open" => FaultOp::Open,
        "fsync" => FaultOp::Fsync,
        // lint: allow(hot_alloc) — parse-time error path
        other => return Err(format!("unknown op `{other}` in `{part}`")),
    };
    let (kind_text, count_text) = match kind_spec.split_once('@') {
        Some((k, c)) => (k, Some(c)),
        None => (kind_spec, None),
    };
    let (kind, default_count) = parse_kind(kind_text, part)?;
    let remaining = match count_text {
        Some(c) => c
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            // lint: allow(hot_alloc) — parse-time error path
            .ok_or_else(|| format!("bad count `@{c}` in `{part}`"))?,
        None => default_count,
    };
    let allowed = matches!(
        (op, kind),
        (FaultOp::Read, FaultKind::ShortRead)
            | (FaultOp::Read, FaultKind::Interrupted)
            | (FaultOp::Read, FaultKind::TruncateAt(_))
            | (FaultOp::Read, FaultKind::BitFlipAt(_))
            | (FaultOp::Write, FaultKind::NoSpace)
            | (FaultOp::Write, FaultKind::Interrupted)
            | (FaultOp::Write, FaultKind::Crash)
            | (FaultOp::Open, FaultKind::FailOp)
            | (FaultOp::Fsync, FaultKind::FailOp)
    );
    if !allowed {
        // lint: allow(hot_alloc) — parse-time error path
        return Err(format!("kind `{kind_text}` does not apply to op `{part}`"));
    }
    Ok(FaultRule {
        op,
        // lint: allow(hot_alloc) — parse-time only
        matcher: matcher.to_string(),
        kind,
        remaining: AtomicU64::new(remaining),
        crashed: AtomicBool::new(false),
    })
}

fn parse_kind(text: &str, part: &str) -> Result<(FaultKind, u64), String> {
    if let Some(n) = text.strip_prefix("truncate=") {
        let n = n
            .parse::<u64>()
            // lint: allow(hot_alloc) — parse-time error path
            .map_err(|_| format!("bad byte offset in `{part}`"))?;
        return Ok((FaultKind::TruncateAt(n), u64::MAX));
    }
    if let Some(n) = text.strip_prefix("flip=") {
        let n = n
            .parse::<u64>()
            // lint: allow(hot_alloc) — parse-time error path
            .map_err(|_| format!("bad byte offset in `{part}`"))?;
        return Ok((FaultKind::BitFlipAt(n), 1));
    }
    if let Some(n) = text.strip_prefix("crash=") {
        let n = n
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            // lint: allow(hot_alloc) — parse-time error path
            .ok_or_else(|| format!("bad op count in `{part}` (crash=N, N >= 1)"))?;
        return Ok((FaultKind::Crash, n));
    }
    match text {
        "short" => Ok((FaultKind::ShortRead, 1)),
        "eintr" => Ok((FaultKind::Interrupted, 1)),
        "enospc" => Ok((FaultKind::NoSpace, 1)),
        "fail" => Ok((FaultKind::FailOp, 1)),
        // lint: allow(hot_alloc) — parse-time error path
        other => Err(format!("unknown fault kind `{other}` in `{part}`")),
    }
}

/// SplitMix64 finaliser: turns [`FLIP_SEED`] and a byte offset into a
/// stable bit choice for `flip=N`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Annotates an I/O error with the file it happened on, so every
/// [`crate::ValueSetError::Io`] names its path.
pub(crate) fn annotate(path: &Path, e: io::Error) -> io::Error {
    if path.as_os_str().is_empty() {
        return e;
    }
    // lint: allow(hot_alloc) — cold error path
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The injection point for opens: consult the plan, then fail or proceed.
pub(crate) fn check_open(path: &Path, plan: Option<&Arc<FaultPlan>>) -> io::Result<()> {
    if let Some(plan) = plan {
        if let Some(e) = plan.before_open(path) {
            return Err(annotate(path, e));
        }
    }
    Ok(())
}

/// The one blessed `File::open` in this crate (enforced by the `fs_open`
/// lint rule): every reader descriptor comes through here, after
/// [`check_open`] has had its chance to inject a failure.
pub(crate) fn open_file(path: &Path) -> io::Result<std::fs::File> {
    std::fs::File::open(path).map_err(|e| annotate(path, e))
}

/// The one blessed `File::create` in this crate: writer descriptors.
pub(crate) fn create_file(path: &Path) -> io::Result<std::fs::File> {
    std::fs::File::create(path).map_err(|e| annotate(path, e))
}

/// A retrying, fault-checked positional `write_all` of `bytes` at byte
/// `offset` of `file`: injected or real `Interrupted` is retried in place
/// (counted into [`ReadStats::io_retries`]); every other failure comes back
/// annotated with `path`, the label of the stream being written.
pub(crate) fn write_all_at(
    file: &std::fs::File,
    bytes: &[u8],
    offset: u64,
    path: &Path,
    plan: Option<&Arc<FaultPlan>>,
    stats: Option<&ReadStats>,
) -> io::Result<()> {
    loop {
        if let Some(plan) = plan {
            match plan.before_write(path, bytes.len()) {
                WriteCheck::Proceed => {}
                WriteCheck::Interrupted => {
                    if let Some(stats) = stats {
                        stats.bump_io_retry();
                    }
                    continue;
                }
                WriteCheck::Fail(e) => return Err(annotate(path, e)),
                WriteCheck::Crash { torn } => {
                    // The crash IS the outcome: whatever the torn prefix
                    // does on disk is what a real mid-write death leaves.
                    // lint: allow(swallowed_result) — best-effort torn prefix; the injected crash error below is the result under test
                    let _ = file.write_all_at(&bytes[..torn], offset);
                    return Err(annotate(path, crash_error()));
                }
            }
        }
        // `write_all_at` itself already loops over real EINTRs; it cannot
        // surface `Interrupted`, so no outer retry arm is needed here.
        return file
            .write_all_at(bytes, offset)
            .map_err(|e| annotate(path, e));
    }
}

/// A fault-checked `File::sync_all` of `path`, which holds the streams
/// labelled `streams` (none for a file that is not a segment): the
/// durability half of atomic publication. An `fsync:fail` rule naming the
/// file or any of its streams (or a latched `crash=N`) fails it; otherwise
/// the real fsync runs and its error comes back annotated.
pub(crate) fn sync_all(
    file: &std::fs::File,
    path: &Path,
    streams: &[PathBuf],
    plan: Option<&Arc<FaultPlan>>,
) -> io::Result<()> {
    if let Some(plan) = plan {
        if let Some(e) = plan.before_fsync(path, streams) {
            return Err(annotate(path, e));
        }
    }
    file.sync_all().map_err(|e| annotate(path, e))
}

/// Asks the kernel to start writing back bytes `range` of `file` — the
/// whole MiB a durable writer's block flush completed
/// ([`crate::format::completed_mib`]) — so the commit's fsync finds them on
/// their way to the device and waits only for the tail. Advisory: it
/// neither waits nor reports, is not a fault op (no rule matches it and it
/// takes no `crash=N` ordinal), and is a no-op off 64-bit Linux. The
/// commit's fsync still reports every write error.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn start_writeback(file: &std::fs::File, range: std::ops::Range<u64>) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        // `sync_file_range(2)`; declared directly to avoid a libc
        // dependency. `off64_t` is `i64` on every 64-bit Linux target.
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }
    /// Start writeback of the range's dirty pages not already under
    /// writeback; do not wait for it.
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    let (Ok(offset), Ok(len)) = (
        i64::try_from(range.start),
        i64::try_from(range.end - range.start),
    ) else {
        return;
    };
    let fd = file.as_raw_fd();
    // SAFETY: `sync_file_range` is the Linux C API, declared with its
    // 64-bit signature; it touches no memory of ours, and `file` keeps
    // `fd` open for the whole call.
    // lint: allow(swallowed_result) — advisory hint: the commit's fsync reports every real write error
    let _ = unsafe { sync_file_range(fd, offset, len, SYNC_FILE_RANGE_WRITE) };
}

/// [`start_writeback`] off 64-bit Linux: nothing to start, the commit's
/// fsync writes the whole segment.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn start_writeback(_file: &std::fs::File, _range: std::ops::Range<u64>) {}

/// Fsyncs a directory so a rename inside it is durable (the directory
/// entry itself must reach the disk, not just the file bytes). Subject to
/// the same `fsync` fault rules as file syncs.
pub(crate) fn sync_dir(dir: &Path, plan: Option<&Arc<FaultPlan>>) -> io::Result<()> {
    if let Some(plan) = plan {
        if let Some(e) = plan.before_fsync(dir, &[]) {
            return Err(annotate(dir, e));
        }
    }
    let handle = std::fs::File::open(dir).map_err(|e| annotate(dir, e))?;
    handle.sync_all().map_err(|e| annotate(dir, e))
}

/// A fault-checked `rename`: the publishing half of atomic publication.
/// A `crash=N` write rule may kill it (see [`FaultPlan::before_rename`]);
/// otherwise the real rename runs and its error comes back annotated.
pub(crate) fn rename(from: &Path, to: &Path, plan: Option<&Arc<FaultPlan>>) -> io::Result<()> {
    if let Some(plan) = plan {
        if let Some(e) = plan.before_rename(from) {
            return Err(annotate(from, e));
        }
    }
    std::fs::rename(from, to).map_err(|e| annotate(from, e))
}

/// The retrying read wrapper every [`crate::BlockReader`] byte flows
/// through: reads one stream of a (possibly shared) descriptor with
/// positional reads from `base` on, consults the plan on each read with
/// stream-relative offsets, retries `Interrupted` in place, applies bit
/// flips, and annotates errors with the stream's label. It is the one
/// place a value-file read reaches the OS, so it is where reads are
/// counted: every `pread` it makes bumps [`ReadStats::read_calls`] and
/// its own [`FaultFile::read_calls`].
#[derive(Debug)]
pub(crate) struct FaultFile {
    inner: Arc<std::fs::File>,
    path: PathBuf,
    /// Where the stream starts in `inner`.
    base: u64,
    /// Bytes of the stream read so far.
    pos: u64,
    /// `pread`s made so far.
    read_calls: u64,
    plan: Option<Arc<FaultPlan>>,
    stats: Option<ReadStats>,
}

impl FaultFile {
    pub(crate) fn new(
        inner: Arc<std::fs::File>,
        path: &Path,
        base: u64,
        plan: Option<Arc<FaultPlan>>,
        stats: Option<ReadStats>,
    ) -> FaultFile {
        FaultFile {
            inner,
            path: path.to_path_buf(),
            base,
            pos: 0,
            read_calls: 0,
            plan,
            stats,
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The shared counters this wrapper bumps, if any.
    pub(crate) fn stats(&self) -> Option<&ReadStats> {
        self.stats.as_ref()
    }

    /// `pread`s this wrapper has made (injected faults that never reach
    /// the OS are not reads).
    pub(crate) fn read_calls(&self) -> u64 {
        self.read_calls
    }

    fn bump_retry(&self) {
        if let Some(stats) = &self.stats {
            stats.bump_io_retry();
        }
    }
}

impl io::Read for FaultFile {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        loop {
            let mut want = out.len();
            if let Some(plan) = &self.plan {
                match plan.before_read(&self.path, self.pos, want) {
                    ReadCheck::Eof => return Ok(0),
                    ReadCheck::Fail(e) => {
                        if e.kind() == io::ErrorKind::Interrupted {
                            // The transient-error contract: retried here,
                            // invisible to every caller above the wrapper.
                            self.bump_retry();
                            continue;
                        }
                        return Err(annotate(&self.path, e));
                    }
                    ReadCheck::Proceed { want: w, shortened } => {
                        if shortened {
                            self.bump_retry();
                        }
                        want = w;
                    }
                }
            }
            self.read_calls += 1;
            if let Some(stats) = &self.stats {
                stats.bump_read_call();
            }
            match self.inner.read_at(&mut out[..want], self.base + self.pos) {
                Ok(n) => {
                    if let Some(plan) = &self.plan {
                        plan.after_read(&self.path, self.pos, &mut out[..n]);
                    }
                    self.pos += n as u64;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.bump_retry();
                    continue;
                }
                Err(e) => return Err(annotate(&self.path, e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn plan(spec: &str) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::parse(spec).unwrap())
    }

    fn fault_file(
        data: &[u8],
        plan: Option<Arc<FaultPlan>>,
        stats: Option<ReadStats>,
    ) -> FaultFile {
        let dir = ind_testkit::TempDir::new("fault-file");
        let path = dir.join("data.bin");
        std::fs::write(&path, data).unwrap();
        let file = Arc::new(std::fs::File::open(&path).unwrap());
        FaultFile::new(file, &path, 0, plan, stats)
    }

    #[test]
    fn parses_the_documented_syntax() {
        let p = FaultPlan::parse("read:attr-00002:flip=57, write:run-:enospc , read:*:eintr@3")
            .unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].kind, FaultKind::BitFlipAt(57));
        assert_eq!(p.rules[1].kind, FaultKind::NoSpace);
        assert_eq!(p.rules[2].kind, FaultKind::Interrupted);
        assert_eq!(p.rules[2].remaining.load(Ordering::Relaxed), 3);
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "read:x",              // missing kind
            "munch:*:eintr",       // unknown op
            "read:*:explode",      // unknown kind
            "read:*:enospc",       // kind/op mismatch
            "open:*:flip=3",       // kind/op mismatch
            "read:*:eintr@0",      // zero count
            "read:*:flip=notanum", // bad offset
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn eintr_is_retried_transparently_and_counted() {
        let stats = ReadStats::new();
        let p = plan("read:*:eintr@5");
        let mut f = fault_file(b"hello world", Some(p.clone()), Some(stats.clone()));
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"hello world");
        assert_eq!(stats.io_retries(), 5, "every injected EINTR is counted");
        assert_eq!(p.fired_count(), 5);
    }

    #[test]
    fn short_reads_are_absorbed_by_the_fill_loop() {
        let stats = ReadStats::new();
        let data: Vec<u8> = (0..200u8).collect();
        let mut f = fault_file(&data, Some(plan("read:*:short@4")), Some(stats.clone()));
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(out, data, "short reads never lose bytes");
        assert!(stats.io_retries() >= 1);
    }

    #[test]
    fn truncation_ends_the_stream_at_byte_n() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut f = fault_file(&data, Some(plan("read:*:truncate=37")), None);
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(out, &data[..37]);
    }

    #[test]
    fn bit_flip_lands_on_the_requested_byte_only() {
        let data = vec![0u8; 64];
        let p = plan("read:*:flip=20");
        let mut f = fault_file(&data, Some(p.clone()), None);
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        let diffs: Vec<usize> = (0..64).filter(|&i| out[i] != 0).collect();
        assert_eq!(diffs, vec![20], "exactly byte 20 differs");
        assert_eq!(out[20].count_ones(), 1, "exactly one bit flipped");
        assert_eq!(p.fired_count(), 1);
    }

    #[test]
    fn a_stream_inside_a_file_reads_from_its_base_with_relative_fault_offsets() {
        // Two streams back to back in one file, as a segment holds them:
        // the second is read from its base, and `flip=2` lands on ITS
        // third byte, matched by its label, not on the file's.
        let dir = ind_testkit::TempDir::new("fault-extent");
        let path = dir.join("seg.indv");
        std::fs::write(&path, b"aaaaabbbbb").unwrap();
        let file = Arc::new(std::fs::File::open(&path).unwrap());
        let p = plan("read:[second]:flip=2");
        let mut first = FaultFile::new(
            Arc::clone(&file),
            &dir.join("seg.indv[first]"),
            0,
            Some(p.clone()),
            None,
        );
        let mut out = [0u8; 5];
        first.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"aaaaa", "the rule names the other stream");
        let mut second = FaultFile::new(
            file,
            &dir.join("seg.indv[second]"),
            5,
            Some(p.clone()),
            None,
        );
        let mut out = Vec::new();
        second.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 5, "read to the end of the file");
        let diffs: Vec<usize> = (0..5).filter(|&i| out[i] != b'b').collect();
        assert_eq!(diffs, vec![2], "byte 2 of the stream, not of the file");
        assert!(p.fired()[0].contains("seg.indv[second]"), "{:?}", p.fired());
    }

    #[test]
    fn flips_pick_a_fixed_bit_per_byte_that_varies_across_bytes() {
        let read = |n: usize| {
            let p = Arc::new(FaultPlan::parse(&format!("read:*:flip={n}")).unwrap());
            let mut f = fault_file(&[0u8; 16], Some(p), None);
            let mut out = Vec::new();
            f.read_to_end(&mut out).unwrap();
            assert_eq!(out[n].count_ones(), 1, "one bit of byte {n}");
            out[n]
        };
        assert_eq!(read(1), read(1), "same byte, same bit");
        let distinct: std::collections::BTreeSet<u8> = (0..16).map(read).collect();
        assert!(distinct.len() > 1, "the byte offset varies the flipped bit");
    }

    #[test]
    fn open_failure_is_injected_once() {
        let p = plan("open:data:fail");
        let dir = ind_testkit::TempDir::new("fault-open");
        let path = dir.join("data.bin");
        std::fs::write(&path, b"x").unwrap();
        let denied = check_open(&path, Some(&p));
        assert!(denied.is_err());
        assert!(
            denied.unwrap_err().to_string().contains("data.bin"),
            "the error names the file"
        );
        assert!(check_open(&path, Some(&p)).is_ok(), "fires only once");
    }

    #[test]
    fn enospc_fails_the_write_with_the_real_errno() {
        let dir = ind_testkit::TempDir::new("fault-write");
        let path = dir.join("out.bin");
        let file = std::fs::File::create(&path).unwrap();
        let p = plan("write:out:enospc");
        let e = write_all_at(&file, b"abc", 0, &path, Some(&p), None).unwrap_err();
        // Path annotation wraps the raw errno, but the kind survives.
        assert_eq!(e.kind(), io::Error::from_raw_os_error(28).kind(), "ENOSPC");
        assert!(e.to_string().contains("out.bin"));
        assert!(
            e.to_string().contains("No space left"),
            "the OS error text survives annotation: {e}"
        );
        // The budgeted rule is spent: the next write succeeds.
        write_all_at(&file, b"abc", 0, &path, Some(&p), None).unwrap();
    }

    #[test]
    fn write_eintr_is_retried_and_counted() {
        let dir = ind_testkit::TempDir::new("fault-write-eintr");
        let path = dir.join("out.bin");
        let file = std::fs::File::create(&path).unwrap();
        let stats = ReadStats::new();
        let p = plan("write:*:eintr@2");
        write_all_at(&file, b"abc", 0, &path, Some(&p), Some(&stats)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        assert_eq!(stats.io_retries(), 2);
    }

    #[test]
    fn crash_tears_the_nth_write_and_kills_the_path() {
        let dir = ind_testkit::TempDir::new("fault-crash");
        let path = dir.join("out.tmp");
        let file = std::fs::File::create(&path).unwrap();
        let p = plan("write:out:crash=3");
        write_all_at(&file, b"aaaa", 0, &path, Some(&p), None).unwrap();
        write_all_at(&file, b"bbbb", 4, &path, Some(&p), None).unwrap();
        let e = write_all_at(&file, b"cccc", 8, &path, Some(&p), None).unwrap_err();
        assert!(e.to_string().contains("injected crash"), "{e}");
        // The third write tore mid-buffer: half of it reached the file.
        assert_eq!(std::fs::read(&path).unwrap(), b"aaaabbbbcc");
        // The path is dead: writes and fsyncs both fail from here on.
        let e = write_all_at(&file, b"dddd", 10, &path, Some(&p), None).unwrap_err();
        assert!(e.to_string().contains("injected crash"));
        let e = sync_all(&file, &path, &[], Some(&p)).unwrap_err();
        assert!(e.to_string().contains("injected crash"));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"aaaabbbbcc",
            "no more bytes land"
        );
        let e = rename(&path, &dir.join("out.bin"), Some(&p)).unwrap_err();
        assert!(e.to_string().contains("injected crash"));
        assert!(path.exists(), "a dead process renames nothing");
        // Unrelated paths are untouched.
        let other = dir.join("other.bin");
        let other_file = std::fs::File::create(&other).unwrap();
        write_all_at(&other_file, b"ok", 0, &other, Some(&p), None).unwrap();
    }

    #[test]
    fn a_rename_counts_as_one_write_of_a_crash_rule() {
        let dir = ind_testkit::TempDir::new("fault-rename");
        let (a, b) = (dir.join("a.tmp"), dir.join("b.tmp"));
        let file = std::fs::File::create(&a).unwrap();
        std::fs::write(&b, b"b").unwrap();
        let p = plan("write:*:crash=3");
        write_all_at(&file, b"a", 0, &a, Some(&p), None).unwrap();
        rename(&a, &dir.join("a"), Some(&p)).unwrap();
        // The third matching op is b's rename: the crash lands between
        // the two renames.
        let e = rename(&b, &dir.join("b"), Some(&p)).unwrap_err();
        assert!(e.to_string().contains("injected crash"), "{e}");
        assert!(dir.join("a").exists() && b.exists() && !dir.join("b").exists());
        assert_eq!(p.fired(), vec![format!("rename:crash:{}", b.display())]);
    }

    #[test]
    fn fsync_failure_is_injected_once_and_named() {
        let dir = ind_testkit::TempDir::new("fault-fsync");
        let path = dir.join("out.bin");
        let file = std::fs::File::create(&path).unwrap();
        let p = plan("fsync:out:fail");
        let e = sync_all(&file, &path, &[], Some(&p)).unwrap_err();
        assert!(e.to_string().contains("injected fsync failure"), "{e}");
        assert!(e.to_string().contains("out.bin"));
        sync_all(&file, &path, &[], Some(&p)).unwrap();
        // A rule naming a stream fails the fsync of the file holding it,
        // once, and the error names the file.
        let p = plan("fsync:attr-00001:fail");
        let streams = [
            dir.join("out.bin[attr-00000]"),
            dir.join("out.bin[attr-00001]"),
        ];
        sync_all(&file, &path, &streams[..1], Some(&p)).unwrap();
        let e = sync_all(&file, &path, &streams, Some(&p)).unwrap_err();
        assert!(e.to_string().contains("out.bin:"), "{e}");
        sync_all(&file, &path, &streams, Some(&p)).unwrap();
        // Directory syncs consult the same rules.
        let p = plan("fsync:fault-fsync:fail");
        assert!(sync_dir(dir.path(), Some(&p)).is_err());
        sync_dir(dir.path(), Some(&p)).unwrap();
        // A `$`-anchored matcher picks the directory out from under the
        // files inside it.
        let sub = dir.join("wd");
        std::fs::create_dir(&sub).unwrap();
        let inside = sub.join("in.bin");
        let file = std::fs::File::create(&inside).unwrap();
        let p = plan("fsync:wd$:fail");
        sync_all(&file, &inside, &[], Some(&p)).unwrap();
        assert!(sync_dir(&sub, Some(&p)).is_err());
    }

    #[test]
    fn crash_syntax_is_validated() {
        assert!(FaultPlan::parse("write:*:crash=1").is_ok());
        assert!(FaultPlan::parse("write:*:crash=0").is_err(), "N >= 1");
        assert!(FaultPlan::parse("read:*:crash=2").is_err(), "write-only");
        assert!(FaultPlan::parse("fsync:*:eintr").is_err(), "fail-only");
    }

    #[test]
    fn rules_match_the_last_component_never_a_directory_above_it() {
        let p = plan("write:comp-:enospc@100");
        let rule = &p.rules[0];
        assert!(rule.matches_path(Path::new("out/a/seg-00-0000.indv[comp-00003]")));
        assert!(!rule.matches_path(Path::new(
            "out/nary-comp-fault/seg-00-0000.indv[attr-00003]"
        )));
        assert!(
            rule.matches_path(Path::new("out/nary-comp-fault")),
            "the directory itself"
        );
        let anchored = &plan("fsync:wd$:fail").rules[0];
        assert!(anchored.matches_path(Path::new("out/x/wd")));
        assert!(
            anchored.matches_path(Path::new("out/x/wd/")),
            "a trailing slash"
        );
        assert!(!anchored.matches_path(Path::new("out/wd/in.bin")));
        let label = &plan("read:[trailer]:flip=1").rules[0];
        assert!(label.matches_path(Path::new("out/[trailer]/seg.indv[trailer]")));
        assert!(!label.matches_path(Path::new("out/[trailer]/seg.indv[attr-00000]")));
        assert!(plan("read:*:eintr").rules[0].matches_path(Path::new("/")));
    }

    #[test]
    fn rules_only_match_their_paths() {
        let p = plan("read:other-file:eintr@1000");
        let mut f = fault_file(b"abc", Some(p.clone()), None);
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abc");
        assert_eq!(p.fired_count(), 0, "non-matching rules never fire");
    }
}
