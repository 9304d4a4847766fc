//! Distribution-aware checkpoint/restart.
//!
//! The paper makes distributions first-class, dynamic runtime objects — so
//! a checkpoint is not an opaque memory dump but a *distributed* object:
//! each rank's shard is written as checksummed segments laid out by the
//! distribution's [`local_linear_runs`](Distribution::local_linear_runs),
//! and the file carries a manifest (distribution descriptor, `INDIRECT`
//! maps, step counter, fingerprints) sufficient to rebuild the on-disk
//! distribution from nothing.  Restoring into a *different* live
//! distribution is then just a redistribute from the "file distribution"
//! to the live one through the ordinary [`PlanCache`]/executor stack —
//! the ViPIOS redistribute-on-read idea for Vienna Fortran parallel I/O.
//!
//! # File format v2 (all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "VFCKPT02"            ┐ the fixed header: all that is
//! step       u64      application step      ┘ read to order the generations
//! elem_bytes u64      element width (must match the restoring T)
//! name       u64 len + bytes (UTF-8 array name)
//! rank       u64; per dim: lower i64, upper i64 (index-domain bounds)
//! nprocs     u64      processors of the target view (rebuilt linear)
//! per dim    dist descriptor: 0=BLOCK · 1=CYCLIC(k) · 2=GEN_BLOCK(sizes)
//!            · 3=INDIRECT(owners) · 4=":"
//! fingerprint u64     structural fingerprint of the saved distribution
//! per proc   u64 run count; per run: local_start u64, global_start u64,
//!            len u64, checksum u64 (the wire checksum of the run's
//!            elements), payload (len · elem_bytes bytes, each element the
//!            low bytes of its bit pattern)
//! trailer    u64      [`trailer_hash`] over every preceding byte
//! ```
//!
//! The per-run checksum is the wire frame's: an xor of the elements' bit
//! patterns, so any single flipped bit in a run is caught — but an xor
//! cannot see two words of one run swapped, a run moved, or a tail cut off
//! at an element boundary.  The trailer exists for those: it covers the
//! header, the manifest, every run header and every payload byte, and it
//! is *position-sensitive* (each 8-byte word is multiplied and rotated
//! into one of four lanes, the length is mixed in), so reordered words,
//! reordered runs, truncations and torn tails all change it.  A format-v1
//! file (`VFCKPT01`, FNV-1a trailer) is refused by its magic as an
//! unsupported version; there is no v1 reader.
//!
//! # Who reads which file when
//!
//! * [`CheckpointStore::save`] reads the 16-byte header of each slot to
//!   pick the slot to overwrite, lays the whole file out once in a buffer
//!   sized up front (each run packed straight into its final position with
//!   its checksum accumulated by the same pass), and writes that buffer
//!   once.
//! * [`CheckpointStore::restore`] reads the two headers to order the
//!   slots, then reads the newest generation once and validates and
//!   decodes those bytes in place: magic, trailer, manifest structure and
//!   sanity bounds, the rebuilt distribution's fingerprint, every run
//!   header against the rebuilt distribution's layout and every run's
//!   checksum over the raw bytes — each *before* the run is unpacked into
//!   the rank's local segment, and all before the array is returned.  The
//!   other slot is opened only if that generation turns out corrupt.
//! * [`CheckpointStore::latest_step`] reads and validates both files in
//!   full, because it promises a *restorable* generation.
//!
//! # Torn-write safety and generations
//!
//! A save writes a temporary file in the store directory (one fixed name
//! per slot, so a crashed save's leftover is overwritten by the next save
//! of that slot rather than accumulating), `sync_all`s it,
//! [`std::fs::rename`]s it over one of **two** generation slots
//! (`gen0.vfck` / `gen1.vfck`) — an empty or unrecognisable slot first,
//! otherwise the one whose header carries the older step — and then
//! `sync_all`s the directory.
//!
//! The slot choice trusts only headers, so it may overwrite the one valid
//! generation while the other slot is silently damaged; that is still
//! safe, because the rename replaces a slot atomically with a complete,
//! valid file: a save never leaves the store with fewer valid generations
//! than it found.
//!
//! * **After a process crash** at any point of a save, both slots hold
//!   exactly what they held before it (the rename either happened or did
//!   not); at worst a partial temporary remains, which nothing reads.
//! * **After a power loss**, a slot holds either its previous content or
//!   the complete new file: the data is on stable storage before the
//!   rename can be, and once `save` has returned the rename itself is too.
//!   What is *not* promised is that a save which had not yet returned is
//!   visible afterwards, nor anything about media that acknowledge a flush
//!   they did not perform.
//!
//! A generation damaged by anything else (bit rot, a foreign writer) fails
//! validation, and restore falls back to the other generation before
//! reporting [`RuntimeError::CorruptCheckpoint`] for the store.
//!
//! All checkpoint I/O is charged to the tracker
//! ([`CommTracker::record_ckpt_write`] / [`CommTracker::record_ckpt_read`]:
//! the length of the file written, the length of the generation decoded)
//! and wrapped in [`trace::Phase::CkptWrite`] / [`trace::Phase::CkptRead`]
//! spans, so persistence traffic shows up in the drift guard next to
//! communication traffic.
//!
//! # Limitations
//!
//! The processor view is rebuilt as [`ProcessorView::linear`] over the
//! stored processor count; a checkpoint of an array distributed onto a
//! non-trivial processor subset fails the fingerprint cross-check at
//! restore rather than silently rebinding ranks.  All segments of a
//! generation go through one buffer and one file; ranks do not write
//! their segments in parallel.

use crate::element::{pack_le_xor, unpack_le, xor_packed_le};
use crate::exec::finish_checksum;
use crate::plan::PlanCache;
use crate::redistribute_impl::{redistribute, RedistOptions};
use crate::{DistArray, Element, PlanExecutor, Result, RuntimeError};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vf_dist::{DimDist, DistType, Distribution, IndirectMap, LinearRun, ProcId, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommTracker};

const MAGIC: &[u8; 8] = b"VFCKPT02";
/// Magic + step: the prefix that orders the generations.
const HEADER_LEN: usize = 16;
const TRAILER_LEN: usize = 8;
const GEN_FILES: [&str; 2] = ["gen0.vfck", "gen1.vfck"];
const TMP_FILES: [&str; 2] = ["gen0.vfck.tmp", "gen1.vfck.tmp"];
const TAG_BLOCK: u64 = 0;
const TAG_CYCLIC: u64 = 1;
const TAG_GEN_BLOCK: u64 = 2;
const TAG_INDIRECT: u64 = 3;
const TAG_NOT_DISTRIBUTED: u64 = 4;

/// A two-generation checkpoint store rooted at one directory.
///
/// One store holds the checkpoint history of one array (or one connect
/// class saved as its lead array); concurrent saves to the same directory
/// are not synchronised.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// A checkpoint brought back to life: the rebuilt array and the step it
/// was saved at.
#[derive(Debug)]
pub struct RestoredCheckpoint<T: Element> {
    /// The restored array (under the file distribution, or the live one
    /// after [`CheckpointStore::restore_into`]).
    pub array: DistArray<T>,
    /// The application step recorded in the manifest.
    pub step: u64,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The two generation slots, oldest-agnostic (slot order is fixed;
    /// which slot is newest depends on the stored step counters).
    pub fn generation_paths(&self) -> [PathBuf; 2] {
        GEN_FILES.map(|name| self.dir.join(name))
    }

    /// The step of the newest *restorable* generation, if any.  Unlike the
    /// slot choice of [`CheckpointStore::save`] and the candidate ordering
    /// of [`CheckpointStore::restore`], which trust a slot's header until
    /// the file is actually decoded, this reads both files in full and
    /// validates trailer, manifest and segment framing — a caller deciding
    /// whether (and from which step) a crashed run can resume needs the
    /// answer `restore` would give, not the newest header.
    pub fn latest_step(&self) -> Option<u64> {
        self.generation_paths()
            .iter()
            .filter_map(|path| {
                let bytes = std::fs::read(path).ok()?;
                validate_structure(&bytes, path).ok()
            })
            .max()
    }

    /// Saves `array` at `step` into the older generation slot
    /// (write-new, sync, atomic rename, sync the directory), charging the
    /// written bytes to `tracker`.  Returns the path of the generation
    /// written.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when the store directory or the
    /// file cannot be written (the I/O error is carried in the reason).
    pub fn save<T: Element>(
        &self,
        array: &DistArray<T>,
        step: u64,
        tracker: &CommTracker,
    ) -> Result<PathBuf> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptWrite, || {
            format!("{} step {step}", array.name())
        });
        let bytes = encode_checkpoint(array, step);
        let slot = self.save_slot();
        let target = self.dir.join(GEN_FILES[slot]);
        let tmp = self.dir.join(TMP_FILES[slot]);
        let io = |e: std::io::Error, what: &str| corrupt(&target, format!("{what}: {e}"));
        std::fs::create_dir_all(&self.dir).map_err(|e| io(e, "create store dir"))?;
        let mut file = File::create(&tmp).map_err(|e| io(e, "create temporary"))?;
        file.write_all(&bytes)
            .map_err(|e| io(e, "write temporary"))?;
        file.sync_all().map_err(|e| io(e, "sync temporary"))?;
        drop(file);
        std::fs::rename(&tmp, &target).map_err(|e| io(e, "rename into generation"))?;
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| io(e, "sync store dir"))?;
        tracker.record_ckpt_write(bytes.len());
        span.end();
        Ok(target)
    }

    /// Restores the newest valid generation under its *file* distribution.
    /// A generation that fails validation is skipped in favour of the
    /// previous one.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when no generation validates
    /// (the reason is the newest failing slot's),
    /// [`RuntimeError::TrackerMismatch`] when the file's processor count
    /// differs from the tracker's.
    pub fn restore<T: Element>(&self, tracker: &CommTracker) -> Result<RestoredCheckpoint<T>> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptRead, || {
            format!("restore from {}", self.dir.display())
        });
        let mut first_err: Option<RuntimeError> = None;
        // Order the slots by their headers alone, newest first; a slot
        // whose header is already unusable is never read further.
        let mut candidates: Vec<(u64, PathBuf)> = Vec::with_capacity(2);
        for path in self.generation_paths() {
            match read_header(&path) {
                Ok(Some(step)) => candidates.push((step, path)),
                Ok(None) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        candidates.sort_by_key(|(step, _)| std::cmp::Reverse(*step));
        // Fall back across generations only on *corruption* — a structural
        // mismatch against the live machine (wrong processor count) is a
        // caller error every generation shares, so it propagates
        // immediately.
        for (_, path) in candidates {
            match read_generation::<T>(&path, tracker) {
                Ok((restored, file_len)) => {
                    tracker.record_ckpt_read(file_len);
                    span.end();
                    return Ok(restored);
                }
                Err(e @ RuntimeError::CorruptCheckpoint { .. }) => {
                    first_err.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(first_err.unwrap_or_else(|| {
            corrupt(
                &self.dir,
                "no restorable checkpoint generation in the store",
            )
        }))
    }

    /// Restores the newest valid generation and redistributes it into the
    /// `live` distribution through `cache`/`executor` — the
    /// redistribute-on-read path.  When the file distribution already
    /// matches `live`, no communication is planned at all.
    ///
    /// # Errors
    /// As [`CheckpointStore::restore`], plus any planning/execution error
    /// of the redistribute.
    pub fn restore_into<T: Element, E: PlanExecutor>(
        &self,
        live: &Distribution,
        tracker: &CommTracker,
        cache: &PlanCache,
        executor: &E,
    ) -> Result<RestoredCheckpoint<T>> {
        let mut restored = self.restore::<T>(tracker)?;
        if !restored.array.dist().same_mapping(live) {
            redistribute(
                &mut restored.array,
                live.clone(),
                tracker,
                &RedistOptions::default(),
                cache,
                executor,
            )?;
        }
        Ok(restored)
    }

    /// The index of the slot a save overwrites, chosen from the slot
    /// headers alone: a missing or unrecognisable slot first, otherwise
    /// the one carrying the older step.  A header can lie about the rest
    /// of its file, so this may pick the only valid generation while the
    /// other slot is damaged in its payload — which costs nothing, because
    /// the slot is replaced by rename with a complete valid file: the
    /// number of valid generations never drops.
    fn save_slot(&self) -> usize {
        let [a, b] = self
            .generation_paths()
            .map(|path| read_header(&path).ok().flatten());
        match (a, b) {
            (None, _) => 0,
            (Some(_), None) => 1,
            (Some(a), Some(b)) => usize::from(a > b),
        }
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> RuntimeError {
    RuntimeError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Checks the magic of a fixed header and returns its step.
fn parse_header(header: &[u8; HEADER_LEN], path: &Path) -> Result<u64> {
    let (magic, step) = header.split_at(MAGIC.len());
    if magic != MAGIC {
        let family = MAGIC.len() - 2;
        return Err(if magic[..family] == MAGIC[..family] {
            corrupt(
                path,
                format!(
                    "unsupported checkpoint format version {} (this build reads only {})",
                    String::from_utf8_lossy(magic),
                    String::from_utf8_lossy(MAGIC)
                ),
            )
        } else {
            corrupt(path, "bad magic (not a VFCKPT02 file)")
        });
    }
    Ok(u64::from_le_bytes(step.try_into().expect("8-byte slice")))
}

/// Reads only the fixed header of a slot: `Ok(None)` when there is no
/// file, the step when the magic is ours, a corruption error otherwise.
fn read_header(path: &Path) -> Result<Option<u64>> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(corrupt(path, format!("open generation: {e}"))),
    };
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|e| corrupt(path, format!("read fixed header: {e}")))?;
    parse_header(&header, path).map(Some)
}

/// The whole-file trailer: a word-wise multiply–rotate hash over 8-byte
/// little-endian words, striped over four independent lanes so the loop
/// carries no single serial multiply chain, with the lanes, the length,
/// the remaining whole words and the byte-wise tail folded in at the end.
///
/// Every step `h ← rotl((h ^ w) · P, R)` is a bijection of `h` for a fixed
/// word and of the word for a fixed `h`, and so are the lane fold and the
/// finisher: changing any *one* word (hence any one byte) always changes
/// the result.  Because the multiply and rotate sit between successive
/// words, the result also depends on *where* a word is — swapped words,
/// moved runs and truncations are caught with hash-collision probability
/// rather than never, which is what the per-run xor cannot offer.
fn trailer_hash(bytes: &[u8]) -> u64 {
    const P: u64 = 0x9e37_79b9_7f4a_7c15;
    const R: u32 = 29;
    fn mix(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(P).rotate_left(R)
    }
    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x8422_2325_cbf2_9ce4,
        0x6a09_e667_f3bc_c908,
        0xbb67_ae85_84ca_a73b,
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, chunk) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = mix(*lane, word(chunk));
        }
    }
    let mut h = lanes
        .into_iter()
        .fold((bytes.len() as u64).wrapping_mul(P), mix);
    let mut words = stripes.remainder().chunks_exact(8);
    for chunk in &mut words {
        h = mix(h, word(chunk));
    }
    for &b in words.remainder() {
        h = mix(h, u64::from(b));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(P);
    h ^ (h >> 29)
}

/// A little-endian cursor that fills a buffer sized up front.
struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Writer<'_> {
    /// The next `n` bytes of the buffer, to be filled by the caller.
    fn reserve(&mut self, n: usize) -> &mut [u8] {
        let start = self.pos;
        self.pos += n;
        &mut self.buf[start..self.pos]
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len()).copy_from_slice(bytes);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Encoded size of one dimension's distribution descriptor.
fn dim_len(dim: &DimDist) -> usize {
    match dim {
        DimDist::Block | DimDist::NotDistributed => 8,
        DimDist::Cyclic(_) => 16,
        DimDist::GenBlock(sizes) => 16 + 8 * sizes.len(),
        DimDist::Indirect(map) => 16 + 8 * map.len(),
    }
}

/// Encodes the whole checkpoint (manifest, per-rank segments, trailer)
/// into one buffer of exactly the file's size: every field is written at
/// its final position, every run is packed once with its checksum
/// accumulated by the same pass.
fn encode_checkpoint<T: Element>(array: &DistArray<T>, step: u64) -> Vec<u8> {
    let dist = array.dist();
    let domain = dist.domain();
    let nprocs = dist.num_procs();
    let runs: Vec<Vec<LinearRun>> = (0..nprocs)
        .map(|p| dist.local_linear_runs(ProcId(p)))
        .collect();
    let manifest_len = HEADER_LEN
        + 8
        + (8 + array.name().len())
        + (8 + 16 * domain.rank())
        + 8
        + dist.dist_type().dims().iter().map(dim_len).sum::<usize>()
        + 8;
    let segments_len: usize = runs
        .iter()
        .map(|rank| 8 + rank.iter().map(|r| 32 + r.len * T::BYTES).sum::<usize>())
        .sum();
    let body_len = manifest_len + segments_len;
    let mut buf = vec![0u8; body_len + TRAILER_LEN];
    let mut w = Writer {
        buf: &mut buf,
        pos: 0,
    };
    w.bytes(MAGIC);
    w.u64(step);
    w.u64(T::BYTES as u64);
    w.u64(array.name().len() as u64);
    w.bytes(array.name().as_bytes());
    w.u64(domain.rank() as u64);
    for d in 0..domain.rank() {
        w.i64(domain.dim(d).lower());
        w.i64(domain.dim(d).upper());
    }
    w.u64(nprocs as u64);
    for dim in dist.dist_type().dims() {
        match dim {
            DimDist::Block => w.u64(TAG_BLOCK),
            DimDist::Cyclic(k) => {
                w.u64(TAG_CYCLIC);
                w.u64(*k as u64);
            }
            DimDist::GenBlock(sizes) => {
                w.u64(TAG_GEN_BLOCK);
                w.u64(sizes.len() as u64);
                for &s in sizes {
                    w.u64(s as u64);
                }
            }
            DimDist::Indirect(map) => {
                w.u64(TAG_INDIRECT);
                w.u64(map.len() as u64);
                for owner in map.owners() {
                    w.u64(owner as u64);
                }
            }
            DimDist::NotDistributed => w.u64(TAG_NOT_DISTRIBUTED),
        }
    }
    w.u64(dist.fingerprint());
    for (p, rank_runs) in runs.iter().enumerate() {
        let local = array.local(ProcId(p));
        w.u64(rank_runs.len() as u64);
        for run in rank_runs {
            w.u64(run.local_start as u64);
            w.u64(run.global_start as u64);
            w.u64(run.len as u64);
            // The checksum precedes the payload it is computed from.
            let (checksum, payload) = w.reserve(8 + run.len * T::BYTES).split_at_mut(8);
            let elems = &local[run.local_start..run.local_start + run.len];
            let acc = pack_le_xor(elems, payload);
            checksum.copy_from_slice(&finish_checksum(acc, run.len).to_le_bytes());
        }
    }
    // The sizes above are arithmetic over the same fields the writer just
    // walked; a file with a hole or a short tail must never be written.
    assert_eq!(w.pos, body_len, "checkpoint size computed up front");
    let trailer = trailer_hash(&buf[..body_len]);
    buf[body_len..].copy_from_slice(&trailer.to_le_bytes());
    buf
}

/// A little-endian cursor over a checkpoint file that turns every overrun
/// into a structured corruption error.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(self.path, format!("truncated while reading {what}")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self, what: &str, limit: usize) -> Result<usize> {
        let v = self.u64(what)?;
        if v > limit as u64 {
            return Err(corrupt(
                self.path,
                format!("{what} {v} exceeds the sanity bound {limit}"),
            ));
        }
        Ok(v as usize)
    }

    /// Fails unless the cursor consumed the whole body.
    fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(
                self.path,
                format!(
                    "{} trailing bytes after the last segment",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// The decoded manifest: everything before the per-rank segments.
struct Manifest {
    step: u64,
    elem_bytes: usize,
    name: String,
    bounds: Vec<(i64, i64)>,
    nprocs: usize,
    dims: Vec<DimDist>,
    fingerprint: u64,
}

/// Parses manifest fields and leaves the reader positioned at the first
/// per-rank segment.
fn parse_manifest(reader: &mut Reader<'_>) -> Result<Manifest> {
    let path = reader.path;
    let header = reader.take(HEADER_LEN, "fixed header")?;
    let step = parse_header(header.try_into().expect("header-sized slice"), path)?;
    let elem_bytes = reader.usize("element width", 64)?;
    if elem_bytes == 0 {
        return Err(corrupt(path, "element width 0"));
    }
    let name_len = reader.usize("name length", 4096)?;
    let name = std::str::from_utf8(reader.take(name_len, "name")?)
        .map_err(|_| corrupt(path, "array name is not UTF-8"))?
        .to_string();
    let rank = reader.usize("domain rank", 16)?;
    if rank == 0 {
        return Err(corrupt(path, "domain rank 0"));
    }
    let mut bounds = Vec::with_capacity(rank);
    for _ in 0..rank {
        let lower = reader.i64("domain lower bound")?;
        let upper = reader.i64("domain upper bound")?;
        bounds.push((lower, upper));
    }
    let nprocs = reader.usize("processor count", 1 << 20)?;
    if nprocs == 0 {
        return Err(corrupt(path, "processor count 0"));
    }
    let mut dims = Vec::with_capacity(rank);
    for d in 0..rank {
        let tag = reader.u64("distribution tag")?;
        let dim = match tag {
            TAG_BLOCK => DimDist::block(),
            TAG_CYCLIC => DimDist::cyclic_k(reader.usize("cyclic width", 1 << 32)?),
            TAG_GEN_BLOCK => {
                let count = reader.usize("general-block count", 1 << 20)?;
                let mut sizes = Vec::with_capacity(count);
                for _ in 0..count {
                    sizes.push(reader.usize("general-block size", 1 << 40)?);
                }
                DimDist::gen_block(sizes)
            }
            TAG_INDIRECT => {
                let count = reader.usize("indirect map length", 1 << 32)?;
                let mut owners = Vec::with_capacity(count);
                for _ in 0..count {
                    owners.push(reader.usize("indirect owner", 1 << 20)?);
                }
                DimDist::indirect(Arc::new(
                    IndirectMap::new(owners)
                        .map_err(|e| corrupt(path, format!("invalid indirect map: {e}")))?,
                ))
            }
            TAG_NOT_DISTRIBUTED => DimDist::not_distributed(),
            other => {
                return Err(corrupt(
                    path,
                    format!("unknown distribution tag {other} in dimension {d}"),
                ))
            }
        };
        dims.push(dim);
    }
    let fingerprint = reader.u64("distribution fingerprint")?;
    Ok(Manifest {
        step,
        elem_bytes,
        name,
        bounds,
        nprocs,
        dims,
        fingerprint,
    })
}

/// Checks the magic (first, so a file of another format version is named
/// as such rather than as a checksum failure) and the whole-file trailer,
/// and returns a reader over the bytes the trailer vouches for.
fn verified_body<'a>(bytes: &'a [u8], path: &'a Path) -> Result<Reader<'a>> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(path, "file shorter than header + trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let header = body[..HEADER_LEN].try_into().expect("header-sized slice");
    parse_header(header, path)?;
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
    if trailer_hash(body) != stored {
        return Err(corrupt(path, "whole-file checksum mismatch (torn write?)"));
    }
    Ok(Reader {
        bytes: body,
        pos: 0,
        path,
    })
}

/// Validates everything that does not need the element type or the live
/// machine: magic, trailer, manifest structure and segment framing.
/// Returns the manifest step.
fn validate_structure(bytes: &[u8], path: &Path) -> Result<u64> {
    let mut reader = verified_body(bytes, path)?;
    let manifest = parse_manifest(&mut reader)?;
    for _ in 0..manifest.nprocs {
        let run_count = reader.usize("segment run count", 1 << 32)?;
        for _ in 0..run_count {
            reader.take(16, "run local and global start")?;
            let len = reader.usize("run length", 1 << 40)?;
            reader.take(8, "run checksum")?;
            reader.take(len * manifest.elem_bytes, "run payload")?;
        }
    }
    reader.finish()?;
    Ok(manifest.step)
}

/// Rebuilds the distribution described by a manifest (linear processor
/// view; the fingerprint cross-check catches anything the descriptor
/// cannot represent).
fn rebuild_distribution(manifest: &Manifest, path: &Path) -> Result<Distribution> {
    let domain = IndexDomain::of_bounds(&manifest.bounds)
        .map_err(|e| corrupt(path, format!("invalid stored domain: {e}")))?;
    let dist = Distribution::new(
        DistType::new(manifest.dims.clone()),
        domain,
        ProcessorView::linear(manifest.nprocs),
    )
    .map_err(|e| corrupt(path, format!("stored distribution does not rebuild: {e}")))?;
    if dist.fingerprint() != manifest.fingerprint {
        return Err(corrupt(
            path,
            format!(
                "rebuilt distribution fingerprint {:#x} differs from stored {:#x} \
                 (non-linear processor view, or a corrupted descriptor)",
                dist.fingerprint(),
                manifest.fingerprint
            ),
        ));
    }
    Ok(dist)
}

/// Reads one generation file, once, and decodes it; also returns the
/// file's length.
fn read_generation<T: Element>(
    path: &Path,
    tracker: &CommTracker,
) -> Result<(RestoredCheckpoint<T>, usize)> {
    let bytes = std::fs::read(path).map_err(|e| corrupt(path, format!("read generation: {e}")))?;
    Ok((decode_checkpoint(&bytes, path, tracker)?, bytes.len()))
}

/// Validates one generation and decodes it into a typed array in a single
/// walk over its bytes: nothing is unpacked before the trailer, the
/// manifest, the rebuilt distribution and that run's own header and
/// checksum have been checked, and nothing is returned unless the walk
/// ends exactly at the trailer.
fn decode_checkpoint<T: Element>(
    bytes: &[u8],
    path: &Path,
    tracker: &CommTracker,
) -> Result<RestoredCheckpoint<T>> {
    let mut reader = verified_body(bytes, path)?;
    let manifest = parse_manifest(&mut reader)?;
    if manifest.elem_bytes != T::BYTES {
        return Err(corrupt(
            path,
            format!(
                "element width mismatch: file has {}-byte elements, restoring {}-byte",
                manifest.elem_bytes,
                T::BYTES
            ),
        ));
    }
    if manifest.nprocs != tracker.num_procs() {
        return Err(RuntimeError::TrackerMismatch {
            tracker_procs: tracker.num_procs(),
            dist_procs: manifest.nprocs,
        });
    }
    let dist = rebuild_distribution(&manifest, path)?;
    let mut array = DistArray::<T>::new(manifest.name, dist.clone());
    for p in 0..manifest.nprocs {
        let expected = dist.local_linear_runs(ProcId(p));
        let run_count = reader.usize("segment run count", 1 << 32)?;
        if run_count != expected.len() {
            return Err(corrupt(
                path,
                format!(
                    "rank {p} has {run_count} stored runs but the distribution lays out {}",
                    expected.len()
                ),
            ));
        }
        let local = &mut array.locals_mut()[p];
        for run in &expected {
            let local_start = reader.usize("run local start", 1 << 40)?;
            let global_start = reader.usize("run global start", 1 << 40)?;
            let len = reader.usize("run length", 1 << 40)?;
            if (local_start, global_start, len) != (run.local_start, run.global_start, run.len) {
                return Err(corrupt(
                    path,
                    format!(
                        "rank {p} segment ({local_start}, {global_start}, {len}) does not match \
                         the distribution's run ({}, {}, {})",
                        run.local_start, run.global_start, run.len
                    ),
                ));
            }
            let checksum = reader.u64("run checksum")?;
            let payload = reader.take(len * T::BYTES, "run payload")?;
            if finish_checksum(xor_packed_le::<T>(payload), len) != checksum {
                return Err(corrupt(
                    path,
                    format!("rank {p} segment at local offset {local_start} fails its checksum"),
                ));
            }
            unpack_le(payload, &mut local[local_start..local_start + len]);
        }
    }
    reader.finish()?;
    array.broadcast_canonical();
    Ok(RestoredCheckpoint {
        array,
        step: manifest.step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_machine::CostModel;

    fn store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("vf_ckpt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn save_restore_round_trips_bitwise() {
        let store = store("roundtrip");
        let dist = dist_1d(DistType::block1d(), 23, 4);
        let data: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let array = DistArray::from_dense("A", dist, &data).unwrap();
        let tracker = CommTracker::new(4, CostModel::zero());
        let path = store.save(&array, 7, &tracker).unwrap();
        assert!(path.ends_with(GEN_FILES[0]));
        assert_eq!(store.latest_step(), Some(7));
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.step, 7);
        assert_eq!(restored.array.name(), "A");
        assert_eq!(restored.array.to_dense(), data);
        assert!(restored.array.dist().same_mapping(array.dist()));
        // Every byte written is read back, and the counters say so.
        let stats = tracker.snapshot();
        assert!(stats.ckpt_bytes_written() > 23 * 8);
        assert_eq!(stats.ckpt_bytes_read(), stats.ckpt_bytes_written());
    }

    #[test]
    fn generations_rotate_and_fall_back() {
        let store = store("generations");
        let dist = dist_1d(DistType::block1d(), 16, 2);
        let tracker = CommTracker::new(2, CostModel::zero());
        let mk = |v: f64| DistArray::from_dense("G", dist.clone(), &[v; 16]).unwrap();
        let p0 = store.save(&mk(1.0), 1, &tracker).unwrap();
        let p1 = store.save(&mk(2.0), 2, &tracker).unwrap();
        assert_ne!(p0, p1, "second save must land in the other slot");
        let p2 = store.save(&mk(3.0), 3, &tracker).unwrap();
        assert_eq!(p2, p0, "third save overwrites the oldest generation");
        assert_eq!(store.latest_step(), Some(3));
        // Corrupt the newest generation: restore falls back to step 2.
        let mut bytes = std::fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&p2, &bytes).unwrap();
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.step, 2);
        assert_eq!(restored.array.to_dense(), vec![2.0; 16]);
        // Corrupt the survivor too: the store reports corruption.
        let mut bytes = std::fs::read(&p1).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&p1, &bytes).unwrap();
        match store.restore::<f64>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { .. }) => {}
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn restore_into_redistributes_to_the_live_distribution() {
        let store = store("redist");
        let n = 31;
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.25).collect();
        let file_dist = dist_1d(DistType::block1d(), n, 4);
        let live = dist_1d(DistType::cyclic1d(1), n, 4);
        let array = DistArray::from_dense("R", file_dist, &data).unwrap();
        let tracker = CommTracker::new(4, CostModel::zero());
        store.save(&array, 5, &tracker).unwrap();
        let cache = PlanCache::new();
        let restored = store
            .restore_into::<f64, _>(&live, &tracker, &cache, &crate::SerialExecutor)
            .unwrap();
        assert_eq!(restored.step, 5);
        assert!(restored.array.dist().same_mapping(&live));
        assert_eq!(restored.array.to_dense(), data);
    }

    #[test]
    fn indirect_distribution_round_trips() {
        let n = 24;
        let owners: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 3).collect();
        let map = Arc::new(IndirectMap::new(owners).unwrap());
        let dist = dist_1d(DistType::new(vec![DimDist::indirect(map)]), n, 3);
        let data: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let array = DistArray::from_dense("I", dist, &data).unwrap();
        let store = store("indirect");
        let tracker = CommTracker::new(3, CostModel::zero());
        store.save(&array, 11, &tracker).unwrap();
        // Same-distribution restore is bitwise.
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.array.to_dense(), data);
        assert!(restored.array.dist().same_mapping(array.dist()));
        // INDIRECT → BLOCK redistribute-on-read is bitwise too.
        let live = dist_1d(DistType::block1d(), n, 3);
        let cache = PlanCache::new();
        let re = store
            .restore_into::<f64, _>(&live, &tracker, &cache, &crate::SerialExecutor)
            .unwrap();
        assert_eq!(re.array.to_dense(), data);
    }

    #[test]
    fn wrong_element_width_and_procs_are_structural_errors() {
        let store = store("structural");
        let dist = dist_1d(DistType::block1d(), 8, 2);
        let array = DistArray::from_dense("S", dist, &[0.5f64; 8]).unwrap();
        let tracker = CommTracker::new(2, CostModel::zero());
        store.save(&array, 1, &tracker).unwrap();
        match store.restore::<f32>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("element width mismatch"))
            }
            other => panic!("expected width mismatch, got {other:?}"),
        }
        let narrow = CommTracker::new(3, CostModel::zero());
        match store.restore::<f64>(&narrow) {
            Err(RuntimeError::TrackerMismatch {
                tracker_procs: 3,
                dist_procs: 2,
            }) => {}
            other => panic!("expected TrackerMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_reports_corruption() {
        let store = store("empty");
        let tracker = CommTracker::new(2, CostModel::zero());
        match store.restore::<f64>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("no restorable"))
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        assert_eq!(store.latest_step(), None);
    }

    #[test]
    fn trailer_hash_mixes_length_position_and_every_byte() {
        // Lengths 0..=40 of an all-zero input cross the stripe, word and
        // byte-tail boundaries; the length is mixed in, so all differ.
        let zeros = [0u8; 40];
        let mut seen: Vec<u64> = (0..=40).map(|n| trailer_hash(&zeros[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 41, "zero inputs of distinct lengths collide");
        // Any single changed byte changes the hash (striped words, tail
        // words and tail bytes alike).
        let input: Vec<u8> = (0..85u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let clean = trailer_hash(&input);
        for at in 0..input.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut damaged = input.clone();
                damaged[at] ^= flip;
                assert_ne!(trailer_hash(&damaged), clean, "byte {at} ^ {flip:#x}");
            }
        }
        // Position matters within a lane, across lanes, and in the tail.
        for (a, b) in [(0, 32), (0, 8), (64, 72), (8, 64)] {
            let mut swapped = input.clone();
            for k in 0..8 {
                swapped.swap(a + k, b + k);
            }
            assert_ne!(trailer_hash(&swapped), clean, "words at {a} and {b}");
        }
    }

    /// Byte ranges `(checksum slot start, payload end)` of every run.
    fn run_ranges(bytes: &[u8], path: &Path) -> Vec<(usize, usize)> {
        let mut reader = verified_body(bytes, path).unwrap();
        let manifest = parse_manifest(&mut reader).unwrap();
        let mut ranges = Vec::new();
        for _ in 0..manifest.nprocs {
            for _ in 0..reader.u64("run count").unwrap() {
                reader.take(16, "starts").unwrap();
                let len = reader.u64("len").unwrap() as usize;
                let start = reader.pos;
                reader.take(8 + len * manifest.elem_bytes, "run").unwrap();
                ranges.push((start, reader.pos));
            }
        }
        ranges
    }

    fn expect_trailer_mismatch(store: &CheckpointStore, tracker: &CommTracker) {
        match store.restore::<f64>(tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("whole-file checksum"), "{reason}")
            }
            other => panic!("expected a trailer mismatch, got {other:?}"),
        }
    }

    #[test]
    fn reordered_words_and_runs_are_caught_by_the_trailer_alone() {
        let store = store("reorder");
        let dist = dist_1d(DistType::block1d(), 16, 2);
        let data: Vec<f64> = (0..16).map(|i| 1.0 + i as f64).collect();
        let array = DistArray::from_dense("W", dist, &data).unwrap();
        let tracker = CommTracker::new(2, CostModel::zero());
        let path = store.save(&array, 1, &tracker).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let runs = run_ranges(&clean, &path);
        assert_eq!(runs.len(), 2);

        // Two elements of one run trade places: the run's xor checksum is
        // blind to that, the position-sensitive trailer is not.
        let (slot, end) = runs[0];
        let mut bytes = clean.clone();
        for k in 0..8 {
            bytes.swap(slot + 8 + k, slot + 24 + k);
        }
        let checksum = u64::from_le_bytes(bytes[slot..slot + 8].try_into().unwrap());
        assert_eq!(
            finish_checksum(xor_packed_le::<f64>(&bytes[slot + 8..end]), 8),
            checksum,
            "the run checksum cannot see a reordering"
        );
        std::fs::write(&path, &bytes).unwrap();
        expect_trailer_mismatch(&store, &tracker);

        // Two whole runs (checksum + payload) trade places under their
        // untouched layout headers: every run still passes its own
        // checksum and the layout cross-check.
        let mut bytes = clean.clone();
        let (a, b) = (runs[0], runs[1]);
        assert_eq!(a.1 - a.0, b.1 - b.0);
        for k in 0..a.1 - a.0 {
            bytes.swap(a.0 + k, b.0 + k);
        }
        std::fs::write(&path, &bytes).unwrap();
        expect_trailer_mismatch(&store, &tracker);

        std::fs::write(&path, &clean).unwrap();
        assert_eq!(
            store.restore::<f64>(&tracker).unwrap().array.to_dense(),
            data
        );
    }

    #[test]
    fn stale_temporaries_are_ignored_then_overwritten() {
        let store = store("stale_tmp");
        let dist = dist_1d(DistType::block1d(), 12, 3);
        let tracker = CommTracker::new(3, CostModel::zero());
        let mk = |v: f64| DistArray::from_dense("T", dist.clone(), &[v; 12]).unwrap();
        store.save(&mk(1.0), 1, &tracker).unwrap();
        // A save of step 2 that died before its rename: most of a valid
        // newer file sits under the temporary's name, and an older crash
        // left one for the other slot too.
        let torn = encode_checkpoint(&mk(2.0), 2);
        let temporaries = TMP_FILES.map(|name| store.dir().join(name));
        for tmp in &temporaries {
            std::fs::write(tmp, &torn[..torn.len() - 5]).unwrap();
        }
        assert_eq!(store.latest_step(), Some(1));
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(
            (restored.step, restored.array.to_dense()),
            (1, vec![1.0; 12])
        );
        // The next saves reuse the fixed names, so no orphan survives.
        store.save(&mk(3.0), 3, &tracker).unwrap();
        store.save(&mk(4.0), 4, &tracker).unwrap();
        for tmp in &temporaries {
            assert!(!tmp.exists(), "{} survived", tmp.display());
        }
        let mut left: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, GEN_FILES);
        assert_eq!(store.restore::<f64>(&tracker).unwrap().step, 4);
    }

    #[test]
    fn a_lying_header_costs_no_valid_generation() {
        let store = store("lying_header");
        let dist = dist_1d(DistType::block1d(), 16, 2);
        let tracker = CommTracker::new(2, CostModel::zero());
        let mk = |v: f64| DistArray::from_dense("L", dist.clone(), &[v; 16]).unwrap();
        let older = store.save(&mk(1.0), 1, &tracker).unwrap();
        let newest = store.save(&mk(2.0), 2, &tracker).unwrap();
        // The newest generation rots in its payload; its header still
        // claims step 2, so the header-only slot choice overwrites the
        // *valid* older slot — atomically, with a valid file.
        let mut bytes = std::fs::read(&newest).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.latest_step(), Some(1));
        assert_eq!(store.save(&mk(3.0), 3, &tracker).unwrap(), older);
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(
            (restored.step, restored.array.to_dense()),
            (3, vec![3.0; 16])
        );
        assert_eq!(store.latest_step(), Some(3));
    }

    #[test]
    fn a_format_v1_file_is_refused_by_name() {
        let store = store("v1");
        let dist = dist_1d(DistType::block1d(), 8, 2);
        let array = DistArray::from_dense("V", dist, &[0.25f64; 8]).unwrap();
        let tracker = CommTracker::new(2, CostModel::zero());
        let path = store.save(&array, 1, &tracker).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"VFCKPT01");
        std::fs::write(&path, &bytes).unwrap();
        match store.restore::<f64>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(
                    reason.contains("unsupported") && reason.contains("VFCKPT01"),
                    "{reason}"
                )
            }
            other => panic!("expected an unsupported-version error, got {other:?}"),
        }
        assert_eq!(store.latest_step(), None);
        // Not a generation, so the next save takes its slot.
        assert_eq!(store.save(&array, 2, &tracker).unwrap(), path);
        assert_eq!(store.restore::<f64>(&tracker).unwrap().step, 2);
    }
}
