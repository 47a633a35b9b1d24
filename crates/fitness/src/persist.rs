//! The durable cache tier: crash-safe persistence of [`FitnessCache`]
//! score shards and trace-encoding shards on top of the `netsyn_persist`
//! record log.
//!
//! ## On-disk layout
//!
//! A cache directory (`NETSYN_CACHE_DIR`, or any path given to
//! [`FitnessCache::durable`]) holds two append-only logs:
//!
//! * `scores.nsl` — batches of published fitness scores. Each record is
//!   `fitness_key ‖ spec ‖ n ‖ n × (program_ids, f64_bits)`;
//! * `traces.nsl` — batches of trace-value encodings. Each record is
//!   `fitness_key ‖ n ‖ n × (tokens, f32_bits…)`.
//!
//! Floats are stored as raw bit patterns, so persisted values round-trip
//! **bit-exactly** (NaN payloads included) — the foundation of the
//! warm-restart determinism guarantee. Every file opens with the
//! `netsyn_persist` log header whose application payload is
//! `kind ‖ codec_version ‖ domain_name ‖ vocab_fingerprint`; a file whose
//! header names a different kind, codec, domain, or DSL vocabulary
//! fingerprint is not trusted (see below). In particular, caches persisted
//! under one domain quarantine to cold when the directory is reopened for
//! another.
//! Cross-checkpoint aliasing is impossible by construction: the
//! `fitness_key` inside every record embeds the model's weight
//! fingerprint, exactly like the in-memory shard keys.
//!
//! ## Crash-consistency and degradation contract
//!
//! Loading is paranoid and graceful — corruption can cost warmth, never
//! correctness:
//!
//! * a missing or empty file starts a cold shard (a crash between file
//!   creation and the first flush is indistinguishable from "no cache");
//! * a torn or bit-flipped record suffix is dropped at the first failing
//!   CRC; the surviving prefix is loaded and the file is compacted in
//!   place (atomic tmp-file + rename replace);
//! * an unreadable file — bad magic, damaged header, wrong format or
//!   codec version, wrong DSL vocabulary — is **quarantined**: renamed to
//!   `<name>.quarantined[-k]` with a warning, never deleted, and a fresh
//!   log takes its place;
//! * any I/O error while flushing marks the store broken for the rest of
//!   the process: the in-memory cache keeps working, later flushes are
//!   skipped with a warning (degrade to memory-only, never panic).
//!
//! Flushing appends only entries not yet persisted (first-write-wins on
//! disk, mirroring the in-memory rule), syncs with `fdatasync`, and can
//! run asynchronously on a background thread — at most one in flight,
//! joined before the owning cache drops. A durable cache's shards record
//! each entry they newly publish on a per-stripe pending list, under the
//! stripe lock the publish already holds; entries loaded at open are not
//! recorded, and in-memory caches record nothing. A flush drains those
//! lists, so its cost follows what is new since the last flush, never the
//! size of the cache. Compaction drains before it exports (an entry
//! published in between is written twice, never lost), and a broken store
//! drains and drops the lists, so none grows past one flush interval.

use crate::cache::{FitnessCache, SpecScores};
use crate::encoding::{TraceEncodingCache, TraceEntry};
use crate::sync::lock_recovering;
use crate::sync::Mutex;
use netsyn_dsl::{DomainId, IoSpec, Program, Value};
use netsyn_persist::{
    decode_log, dir as persist_dir, ByteReader, ByteWriter, FaultPlan, FaultyFile, FileStorage,
    LogError, LogWriter,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// File name of the score log inside a cache directory.
pub const SCORES_FILE: &str = "scores.nsl";
/// File name of the trace-encoding log inside a cache directory.
pub const TRACES_FILE: &str = "traces.nsl";

/// Header kind string of the score log.
const SCORES_KIND: &str = "netsyn-fitness/scores";
/// Header kind string of the trace-encoding log.
const TRACES_KIND: &str = "netsyn-fitness/traces";

/// Version of the record payload codec (bumped on any payload change;
/// readers quarantine files with any other value). Version 2 replaced the
/// baked-in function count in the header with the domain name and its
/// vocabulary fingerprint, and added string value tags to the value codec.
const CODEC_VERSION: u32 = 2;

/// Environment variable selecting the cache directory (opt-in durability).
pub const CACHE_DIR_ENV: &str = "NETSYN_CACHE_DIR";
/// Environment variable overriding the periodic flush interval.
pub const FLUSH_EVERY_ENV: &str = "NETSYN_CACHE_FLUSH_EVERY";

/// How a durable cache is opened.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Flush after every this-many [`FitnessCache::maybe_periodic_flush`]
    /// ticks (the GA engine ticks once per generation).
    pub flush_every: usize,
    /// Fault plan injected into newly opened log writers — test-only
    /// machinery for proving the degradation contract.
    pub fault: Option<FaultPlan>,
    /// The DSL domain whose caches this directory holds. Written into every
    /// log header (name + vocabulary fingerprint); a file persisted under a
    /// different domain is quarantined and the cache starts cold.
    pub domain: DomainId,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            flush_every: flush_every_from_env(),
            fault: None,
            domain: DomainId::List,
        }
    }
}

/// The flush interval used when [`FLUSH_EVERY_ENV`] is unset or invalid.
const DEFAULT_FLUSH_EVERY: usize = 16;

/// The strictly parsed [`FLUSH_EVERY_ENV`] override.
///
/// A valid integer `n >= 1` is returned as is. An invalid value — not an
/// integer, zero, or non-unicode — is *not* silently ignored: one warning
/// line naming the rejected value and the fallback is printed to stderr,
/// and [`DEFAULT_FLUSH_EVERY`] is used.
fn flush_every_from_env() -> usize {
    static WARNED: std::sync::Once = std::sync::Once::new();
    let rejected = match std::env::var(FLUSH_EVERY_ENV) {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => format!("{value:?}"),
        },
        Err(std::env::VarError::NotPresent) => return DEFAULT_FLUSH_EVERY,
        Err(std::env::VarError::NotUnicode(raw)) => format!("{raw:?}"),
    };
    WARNED.call_once(|| {
        warn(&format!(
            "ignoring invalid {FLUSH_EVERY_ENV}={rejected} (expected an integer >= 1); \
             flushing every {DEFAULT_FLUSH_EVERY} ticks"
        ));
    });
    DEFAULT_FLUSH_EVERY
}

/// What a flush appended to disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Newly persisted `(program, score)` entries.
    pub score_entries: usize,
    /// Newly persisted trace-encoding entries.
    pub trace_entries: usize,
}

/// What loading a cache directory found — the test-visible summary of the
/// recovery path taken.
#[derive(Debug, Default, Clone)]
pub struct LoadReport {
    /// `(program, score)` entries loaded into score shards.
    pub score_entries: usize,
    /// Trace-encoding entries loaded into trace shards.
    pub trace_entries: usize,
    /// Files moved aside because they could not be trusted at all.
    pub quarantined: Vec<PathBuf>,
    /// Human-readable notes about dropped record suffixes.
    pub damage: Vec<String>,
    /// Files rewritten clean after a damaged suffix was dropped.
    pub compacted: usize,
    /// CRC-valid records skipped because their payload did not decode.
    pub skipped_records: usize,
}

/// Cache content snapshots handed to the flusher (cheap `Arc` clones).
pub(crate) type ScoreSnapshot = Vec<(String, IoSpec, Arc<SpecScores>)>;
pub(crate) type TraceSnapshot = Vec<(String, Arc<TraceEncodingCache>)>;

/// The append writers, each opened on the first flush that has entries for
/// its log. Which entries are new is not tracked here: the shards' pending
/// lists hold them (see the module docs). Holding this lock serializes
/// flushes and compaction.
#[derive(Debug, Default)]
struct StoreInner {
    scores_writer: Option<LogWriter>,
    traces_writer: Option<LogWriter>,
}

/// The persistence engine behind a durable [`FitnessCache`] (see the
/// module docs for the format and the contract).
#[derive(Debug)]
pub(crate) struct DurableStore {
    dir: PathBuf,
    flush_every: usize,
    fault: Option<FaultPlan>,
    domain: DomainId,
    tick: AtomicUsize,
    /// Set on a flush I/O error or a failed compaction: the store
    /// degrades to memory-only until a compaction succeeds.
    broken: AtomicBool,
    inner: Mutex<StoreInner>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    report: LoadReport,
}

impl DurableStore {
    /// Open (and recover) the logs under `dir`, loading every surviving
    /// entry into `cache`.
    pub(crate) fn open(
        dir: &Path,
        options: DurableOptions,
        cache: &FitnessCache,
    ) -> io::Result<Arc<DurableStore>> {
        std::fs::create_dir_all(dir)?;
        let mut report = LoadReport::default();

        for record in load_log_file(
            &dir.join(SCORES_FILE),
            SCORES_KIND,
            options.domain,
            &mut report,
        ) {
            match decode_scores_record(&record) {
                Ok((key, spec, entries)) => {
                    report.score_entries += entries.len();
                    cache.shard(&key, &spec).load(entries);
                }
                Err(reason) => {
                    report.skipped_records += 1;
                    warn(&format!(
                        "skipping undecodable score record in {}: {reason}",
                        dir.join(SCORES_FILE).display()
                    ));
                }
            }
        }

        for record in load_log_file(
            &dir.join(TRACES_FILE),
            TRACES_KIND,
            options.domain,
            &mut report,
        ) {
            match decode_traces_record(&record) {
                Ok((key, entries)) => {
                    report.trace_entries += entries.len();
                    cache.trace_shard(&key).load(entries);
                }
                Err(reason) => {
                    report.skipped_records += 1;
                    warn(&format!(
                        "skipping undecodable trace record in {}: {reason}",
                        dir.join(TRACES_FILE).display()
                    ));
                }
            }
        }

        Ok(Arc::new(DurableStore {
            dir: dir.to_path_buf(),
            flush_every: options.flush_every.max(1),
            fault: options.fault,
            domain: options.domain,
            tick: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
            inner: Mutex::new(StoreInner::default()),
            flusher: Mutex::new(None),
            report,
        }))
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn report(&self) -> &LoadReport {
        &self.report
    }

    /// True when a flush is due (ticked once per GA generation).
    pub(crate) fn tick(&self) -> bool {
        (self.tick.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.flush_every)
    }

    /// Append every entry the snapshots' shards published since the last
    /// flush, then sync.
    pub(crate) fn flush_snapshots(
        &self,
        scores: &ScoreSnapshot,
        traces: &TraceSnapshot,
    ) -> FlushStats {
        let mut stats = FlushStats::default();
        // Check `broken` under the lock: compaction clears it while holding
        // the lock, after its own drain.
        let mut inner = lock_recovering(&self.inner);
        if !self.broken.load(Ordering::Relaxed) {
            if let Err(err) = self.append_pending(&mut inner, scores, traces, &mut stats) {
                // Degrade to memory-only: correctness never depends on the
                // durable tier, so a full disk costs warmth, not results.
                self.broken.store(true, Ordering::Relaxed);
                inner.scores_writer = None;
                inner.traces_writer = None;
                warn(&format!(
                    "flush to {} failed ({err}); cache continues memory-only",
                    self.dir.display()
                ));
            }
        }
        if self.broken.load(Ordering::Relaxed) {
            // Nothing more reaches disk until a compaction, which writes
            // everything: drop what is pending so the lists stay bounded.
            discard_pending(scores, traces);
        }
        stats
    }

    fn append_pending(
        &self,
        inner: &mut StoreInner,
        scores: &ScoreSnapshot,
        traces: &TraceSnapshot,
        stats: &mut FlushStats,
    ) -> io::Result<()> {
        let mut scores_dirty = false;
        for (key, spec, shard) in scores {
            let fresh = shard.drain_pending();
            if fresh.is_empty() {
                continue;
            }
            let record = encode_scores_record(key, spec, &fresh);
            let writer = open_writer(
                &mut inner.scores_writer,
                &self.dir.join(SCORES_FILE),
                SCORES_KIND,
                self.domain,
                self.fault,
            )?;
            writer.append(&record)?;
            scores_dirty = true;
            stats.score_entries += fresh.len();
        }
        if scores_dirty {
            if let Some(writer) = inner.scores_writer.as_mut() {
                writer.sync()?;
            }
        }

        let mut traces_dirty = false;
        for (key, shard) in traces {
            let fresh = shard.drain_pending();
            if fresh.is_empty() {
                continue;
            }
            let record = encode_traces_record(key, &fresh);
            let writer = open_writer(
                &mut inner.traces_writer,
                &self.dir.join(TRACES_FILE),
                TRACES_KIND,
                self.domain,
                self.fault,
            )?;
            writer.append(&record)?;
            traces_dirty = true;
            stats.trace_entries += fresh.len();
        }
        if traces_dirty {
            if let Some(writer) = inner.traces_writer.as_mut() {
                writer.sync()?;
            }
        }
        Ok(())
    }

    /// Kick off a background flush of the snapshots; skipped (the next
    /// tick retries) when one is already in flight.
    pub(crate) fn flush_async(self: &Arc<Self>, scores: ScoreSnapshot, traces: TraceSnapshot) {
        let mut flusher = lock_recovering(&self.flusher);
        if let Some(handle) = flusher.take() {
            if !handle.is_finished() {
                *flusher = Some(handle);
                return;
            }
            let _ = handle.join();
        }
        // A plain OS thread, deliberately not the work-stealing pool: a
        // pool job blocking on the store mutex could be stolen onto a
        // scoring thread's helping loop.
        let store = Arc::clone(self);
        *flusher = Some(std::thread::spawn(move || {
            let _ = store.flush_snapshots(&scores, &traces);
        }));
    }

    /// Join the in-flight background flush, if any.
    pub(crate) fn join_flusher(&self) {
        let handle = lock_recovering(&self.flusher).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Rewrite both logs from the full snapshots (atomic replace). Clears
    /// the broken flag on success — compaction is the recovery path after,
    /// say, a transiently full disk — and sets it on failure, since the
    /// pending entries it drained reach disk only through a later
    /// successful compaction.
    pub(crate) fn compact(&self, scores: &ScoreSnapshot, traces: &TraceSnapshot) -> io::Result<()> {
        let mut inner = lock_recovering(&self.inner);
        inner.scores_writer = None;
        inner.traces_writer = None;
        // Drain before exporting: an entry published in between is both
        // exported and pending (a harmless duplicate on disk), never neither.
        discard_pending(scores, traces);
        let result = self.rewrite_logs(scores, traces);
        self.broken.store(result.is_err(), Ordering::Relaxed);
        result
    }

    fn rewrite_logs(&self, scores: &ScoreSnapshot, traces: &TraceSnapshot) -> io::Result<()> {
        let mut scores_bytes =
            netsyn_persist::log::encode_header(&encode_app_header(SCORES_KIND, self.domain));
        for (key, spec, shard) in scores {
            let exported = shard.export();
            if exported.is_empty() {
                continue;
            }
            let record = encode_scores_record(key, spec, &exported);
            scores_bytes.extend_from_slice(&netsyn_persist::log::encode_record(&record));
        }
        persist_dir::atomic_replace(&self.dir.join(SCORES_FILE), &scores_bytes)?;

        let mut traces_bytes =
            netsyn_persist::log::encode_header(&encode_app_header(TRACES_KIND, self.domain));
        for (key, shard) in traces {
            let exported = shard.export();
            if exported.is_empty() {
                continue;
            }
            let record = encode_traces_record(key, &exported);
            traces_bytes.extend_from_slice(&netsyn_persist::log::encode_record(&record));
        }
        persist_dir::atomic_replace(&self.dir.join(TRACES_FILE), &traces_bytes)
    }
}

/// Drain and drop every pending entry of the snapshots' shards.
fn discard_pending(scores: &ScoreSnapshot, traces: &TraceSnapshot) {
    for (_, _, shard) in scores {
        let _ = shard.drain_pending();
    }
    for (_, shard) in traces {
        let _ = shard.drain_pending();
    }
}

fn warn(message: &str) {
    eprintln!("netsyn-fitness durable cache: {message}");
}

/// Open (lazily) the append writer for one log file, with the test fault
/// plan applied when present.
fn open_writer<'a>(
    slot: &'a mut Option<LogWriter>,
    path: &Path,
    kind: &str,
    domain: DomainId,
    fault: Option<FaultPlan>,
) -> io::Result<&'a mut LogWriter> {
    if slot.is_none() {
        let header = encode_app_header(kind, domain);
        let writer = match fault {
            Some(plan) => LogWriter::new(Box::new(FaultyFile::create(path, plan)), header)?,
            None => LogWriter::new(Box::new(FileStorage::open(path)?), header)?,
        };
        *slot = Some(writer);
    }
    Ok(slot.as_mut().expect("writer just installed"))
}

/// Load one log file: quarantine what cannot be trusted, compact away
/// damaged suffixes, and return the surviving record payloads.
fn load_log_file(
    path: &Path,
    kind: &str,
    domain: DomainId,
    report: &mut LoadReport,
) -> Vec<Vec<u8>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Vec::new(),
        Err(err) => {
            warn(&format!(
                "cannot read {} ({err}); starting cold",
                path.display()
            ));
            return Vec::new();
        }
    };
    let loaded = match decode_log(&bytes) {
        Ok(loaded) => loaded,
        Err(err @ (LogError::NotALog(_) | LogError::WrongVersion { .. })) => {
            quarantine_file(path, &err.to_string(), report);
            return Vec::new();
        }
    };
    let Some(header) = loaded.header else {
        // Zero-length file: a crash between create and first write.
        return Vec::new();
    };
    if let Err(reason) = check_app_header(&header, kind, domain) {
        quarantine_file(path, &reason, report);
        return Vec::new();
    }
    if let Some(damage) = loaded.damage {
        report.damage.push(format!(
            "{}: dropped {} damaged trailing bytes at offset {} ({})",
            path.display(),
            damage.dropped_bytes,
            damage.offset,
            damage.reason
        ));
        warn(report.damage.last().expect("just pushed"));
        // Rewrite the file clean so the damage is not re-reported forever
        // and the append offset is consistent.
        let mut clean = netsyn_persist::log::encode_header(&encode_app_header(kind, domain));
        for record in &loaded.records {
            clean.extend_from_slice(&netsyn_persist::log::encode_record(record));
        }
        match persist_dir::atomic_replace(path, &clean) {
            Ok(()) => report.compacted += 1,
            Err(err) => warn(&format!(
                "could not compact {} ({err}); damaged suffix remains on disk",
                path.display()
            )),
        }
    }
    loaded.records
}

fn quarantine_file(path: &Path, reason: &str, report: &mut LoadReport) {
    match persist_dir::quarantine(path) {
        Ok(moved) => {
            warn(&format!(
                "{} is unreadable ({reason}); quarantined to {} and starting cold",
                path.display(),
                moved.display()
            ));
            report.quarantined.push(moved);
        }
        Err(err) => warn(&format!(
            "{} is unreadable ({reason}) and could not be quarantined ({err}); starting cold",
            path.display()
        )),
    }
}

// ---------------------------------------------------------------------------
// Codec: application header and record payloads.
// ---------------------------------------------------------------------------

fn encode_app_header(kind: &str, domain: DomainId) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(kind);
    w.put_u32(CODEC_VERSION);
    w.put_str(domain.as_str());
    w.put_u64(domain.vocab_fingerprint());
    w.into_bytes()
}

fn check_app_header(header: &[u8], kind: &str, domain: DomainId) -> Result<(), String> {
    let mut r = ByteReader::new(header);
    let found_kind = r.get_str().map_err(|_| "truncated header".to_string())?;
    if found_kind != kind {
        return Err(format!("header kind {found_kind:?}, expected {kind:?}"));
    }
    let codec = r.get_u32().map_err(|_| "truncated header".to_string())?;
    if codec != CODEC_VERSION {
        return Err(format!(
            "codec version {codec}, this build reads {CODEC_VERSION}"
        ));
    }
    let found_domain = r.get_str().map_err(|_| "truncated header".to_string())?;
    if found_domain != domain.as_str() {
        return Err(format!(
            "domain {found_domain:?}, this cache is opened for {:?}",
            domain.as_str()
        ));
    }
    let fingerprint = r.get_u64().map_err(|_| "truncated header".to_string())?;
    if fingerprint != domain.vocab_fingerprint() {
        return Err(format!(
            "vocabulary fingerprint {fingerprint:#018x}, this build has {:#018x}",
            domain.vocab_fingerprint()
        ));
    }
    Ok(())
}

fn encode_value(w: &mut ByteWriter, value: &Value) {
    match value {
        Value::Int(v) => {
            w.put_u8(0);
            w.put_i64(*v);
        }
        Value::List(vs) => {
            w.put_u8(1);
            w.put_u32(vs.len() as u32);
            for &v in vs {
                w.put_i64(v);
            }
        }
        Value::Str(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        Value::StrList(words) => {
            w.put_u8(3);
            w.put_u32(words.len() as u32);
            for word in words {
                w.put_str(word);
            }
        }
    }
}

fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, String> {
    match r.get_u8().map_err(|_| "truncated value tag")? {
        0 => Ok(Value::Int(r.get_i64().map_err(|_| "truncated int")?)),
        1 => {
            let len = r.get_u32().map_err(|_| "truncated list length")? as usize;
            if len > r.remaining() / 8 {
                return Err("list length overruns record".to_string());
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(r.get_i64().map_err(|_| "truncated list item")?);
            }
            Ok(Value::List(items))
        }
        2 => Ok(Value::Str(
            r.get_str().map_err(|_| "truncated string")?.to_string(),
        )),
        3 => {
            let len = r.get_u32().map_err(|_| "truncated word count")? as usize;
            if len > r.remaining() {
                return Err("word count overruns record".to_string());
            }
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                words.push(r.get_str().map_err(|_| "truncated word")?.to_string());
            }
            Ok(Value::StrList(words))
        }
        tag => Err(format!("unknown value tag {tag}")),
    }
}

fn encode_spec(w: &mut ByteWriter, spec: &IoSpec) {
    let examples = spec.examples();
    w.put_u32(examples.len() as u32);
    for example in examples {
        w.put_u32(example.inputs.len() as u32);
        for input in &example.inputs {
            encode_value(w, input);
        }
        encode_value(w, &example.output);
    }
}

fn decode_spec(r: &mut ByteReader<'_>) -> Result<IoSpec, String> {
    let count = r.get_u32().map_err(|_| "truncated example count")? as usize;
    if count > r.remaining() {
        return Err("example count overruns record".to_string());
    }
    let mut examples = Vec::with_capacity(count);
    for _ in 0..count {
        let inputs_len = r.get_u32().map_err(|_| "truncated input count")? as usize;
        if inputs_len > r.remaining() {
            return Err("input count overruns record".to_string());
        }
        let mut inputs = Vec::with_capacity(inputs_len);
        for _ in 0..inputs_len {
            inputs.push(decode_value(r)?);
        }
        let output = decode_value(r)?;
        examples.push(netsyn_dsl::IoExample::new(inputs, output));
    }
    Ok(IoSpec::new(examples))
}

fn encode_scores_record(key: &str, spec: &IoSpec, entries: &[(Program, f64)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(key);
    encode_spec(&mut w, spec);
    w.put_u32(entries.len() as u32);
    for (program, score) in entries {
        w.put_bytes(&program.ids());
        w.put_f64_bits(*score);
    }
    w.into_bytes()
}

type ScoresRecord = (String, IoSpec, Vec<(Program, f64)>);

fn decode_scores_record(payload: &[u8]) -> Result<ScoresRecord, String> {
    let mut r = ByteReader::new(payload);
    let key = r.get_str().map_err(|_| "truncated key")?.to_string();
    let spec = decode_spec(&mut r)?;
    let count = r.get_u32().map_err(|_| "truncated entry count")? as usize;
    if count > r.remaining() {
        return Err("entry count overruns record".to_string());
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let ids = r.get_bytes().map_err(|_| "truncated program ids")?;
        let program = Program::from_ids(ids).map_err(|err| format!("bad program ids: {err}"))?;
        let score = r.get_f64_bits().map_err(|_| "truncated score")?;
        entries.push((program, score));
    }
    if !r.is_empty() {
        return Err("trailing bytes after score entries".to_string());
    }
    Ok((key, spec, entries))
}

fn encode_traces_record(key: &str, entries: &[TraceEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(key);
    w.put_u32(entries.len() as u32);
    for (tokens, hidden) in entries {
        w.put_u32(tokens.len() as u32);
        for &token in tokens.iter() {
            w.put_u64(token as u64);
        }
        w.put_u32(hidden.len() as u32);
        for &h in hidden.iter() {
            w.put_f32_bits(h);
        }
    }
    w.into_bytes()
}

type TracesRecord = (String, Vec<(Box<[usize]>, Arc<[f32]>)>);

fn decode_traces_record(payload: &[u8]) -> Result<TracesRecord, String> {
    let mut r = ByteReader::new(payload);
    let key = r.get_str().map_err(|_| "truncated key")?.to_string();
    let count = r.get_u32().map_err(|_| "truncated entry count")? as usize;
    if count > r.remaining() {
        return Err("entry count overruns record".to_string());
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let token_len = r.get_u32().map_err(|_| "truncated token length")? as usize;
        if token_len > r.remaining() / 8 {
            return Err("token length overruns record".to_string());
        }
        let mut tokens = Vec::with_capacity(token_len);
        for _ in 0..token_len {
            tokens.push(r.get_u64().map_err(|_| "truncated token")? as usize);
        }
        let hidden_len = r.get_u32().map_err(|_| "truncated hidden length")? as usize;
        if hidden_len > r.remaining() / 4 {
            return Err("hidden length overruns record".to_string());
        }
        let mut hidden = Vec::with_capacity(hidden_len);
        for _ in 0..hidden_len {
            hidden.push(r.get_f32_bits().map_err(|_| "truncated hidden state")?);
        }
        entries.push((tokens.into_boxed_slice(), Arc::<[f32]>::from(hidden)));
    }
    if !r.is_empty() {
        return Err("trailing bytes after trace entries".to_string());
    }
    Ok((key, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_record_round_trips_bit_exactly() {
        let spec = IoSpec::new(vec![netsyn_dsl::IoExample::new(
            vec![Value::List(vec![3, -1, i64::MAX]), Value::Int(-9)],
            Value::List(vec![]),
        )]);
        let entries = vec![
            (Program::from_ids(&[1, 2, 3]).unwrap(), f64::NAN),
            (Program::from_ids(&[41]).unwrap(), -0.0),
            (Program::default(), 1.5e-300),
        ];
        let record = encode_scores_record("nn-CF#00ff", &spec, &entries);
        let (key, spec_back, back) = decode_scores_record(&record).unwrap();
        assert_eq!(key, "nn-CF#00ff");
        assert_eq!(spec_back, spec);
        assert_eq!(back.len(), entries.len());
        for ((p, s), (q, t)) in back.iter().zip(entries.iter()) {
            assert_eq!(p, q);
            assert_eq!(
                s.to_bits(),
                t.to_bits(),
                "scores must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn traces_record_round_trips_bit_exactly() {
        let entries: Vec<TraceEntry> = vec![
            (
                vec![1usize, 257, 0].into_boxed_slice(),
                vec![0.5f32, f32::NAN, -0.0].into(),
            ),
            (vec![].into_boxed_slice(), vec![].into()),
        ];
        let record = encode_traces_record("nn-LCS#beef", &entries);
        let (key, back) = decode_traces_record(&record).unwrap();
        assert_eq!(key, "nn-LCS#beef");
        assert_eq!(back.len(), 2);
        for ((tk, h), (tk2, h2)) in back.iter().zip(entries.iter()) {
            assert_eq!(tk, tk2);
            assert_eq!(h.len(), h2.len());
            for (a, b) in h.iter().zip(h2.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_errors_not_panics() {
        // Truncations and garbage at every prefix length must fail cleanly.
        let spec = IoSpec::new(vec![netsyn_dsl::IoExample::new(
            vec![Value::Int(1)],
            Value::Int(2),
        )]);
        let record = encode_scores_record("k", &spec, &[(Program::from_ids(&[1]).unwrap(), 0.5)]);
        for cut in 0..record.len() {
            let _ = decode_scores_record(&record[..cut]);
        }
        // A program id of 0 (or > 41) is invalid and must be rejected.
        let mut bad = ByteWriter::new();
        bad.put_str("k");
        encode_spec(&mut bad, &spec);
        bad.put_u32(1);
        bad.put_bytes(&[0]);
        bad.put_f64_bits(1.0);
        assert!(decode_scores_record(&bad.into_bytes()).is_err());
    }

    #[test]
    fn header_checks_reject_foreign_files() {
        let scores = encode_app_header(SCORES_KIND, DomainId::List);
        assert!(check_app_header(&scores, SCORES_KIND, DomainId::List).is_ok());
        // The wrong-kind case: a traces header in the scores slot.
        assert!(check_app_header(&scores, TRACES_KIND, DomainId::List).is_err());
        // The cross-domain case: a list-domain file opened for the string
        // domain (and vice versa) is never trusted.
        assert!(check_app_header(&scores, SCORES_KIND, DomainId::Str).is_err());
        let str_scores = encode_app_header(SCORES_KIND, DomainId::Str);
        assert!(check_app_header(&str_scores, SCORES_KIND, DomainId::Str).is_ok());
        assert!(check_app_header(&str_scores, SCORES_KIND, DomainId::List).is_err());
        // A header claiming the right domain name but a different
        // vocabulary fingerprint is not trusted either.
        let mut w = ByteWriter::new();
        w.put_str(SCORES_KIND);
        w.put_u32(CODEC_VERSION);
        w.put_str(DomainId::List.as_str());
        w.put_u64(DomainId::List.vocab_fingerprint() ^ 1);
        assert!(check_app_header(&w.into_bytes(), SCORES_KIND, DomainId::List).is_err());
    }

    #[test]
    fn string_values_round_trip_through_the_codec() {
        let spec = IoSpec::new(vec![netsyn_dsl::IoExample::new(
            vec![Value::Str("hello world".to_string())],
            Value::StrList(vec!["hello".to_string(), String::new()]),
        )]);
        let entries = vec![(Program::from_ids(&[42]).unwrap(), 0.25)];
        let record = encode_scores_record("nn-CF#str", &spec, &entries);
        let (key, spec_back, back) = decode_scores_record(&record).unwrap();
        assert_eq!(key, "nn-CF#str");
        assert_eq!(spec_back, spec);
        assert_eq!(back, entries);
    }
}
