//! One segment: a bounded, self-describing, columnar batch of sessions.
//!
//! See the crate docs for the file layout. The writer buffers *columns*,
//! not records: pushing a [`SessionRecord`] immediately scatters its
//! fields into per-column buffers and interns its strings, so the only
//! per-segment memory is the (bounded) column data plus the dictionary.

use crate::{SessionDbError, FOOTER_MAGIC, MAGIC, VERSION};
use honeypot::{
    CommandRecord, FileEvent, FileOp, LoginAttempt, Protocol, SessionEndReason, SessionRecord,
};
use hutil::{crc32, DateTime};
use netsim::Ipv4Addr;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

/// Byte length of the fixed footer.
pub(crate) const FOOTER_LEN: u64 = 32;
/// Byte length of the fixed header.
pub(crate) const HEADER_LEN: u64 = 8;

const BLOCK_DICT: u8 = 1;
const BLOCK_ROWS: u8 = 2;

// --- little-endian encode/decode helpers --------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked sequential reader over a decoded payload. Every
/// overrun is a corruption diagnosis, not a panic.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `count` values of `width` bytes each, as one slice.
    pub(crate) fn column(&mut self, count: usize, width: usize) -> Result<&'a [u8], String> {
        self.take(count.checked_mul(width).ok_or("length overflow")?)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// --- string interning ---------------------------------------------------

/// Write-side dictionary: every distinct string costs one entry.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    /// `None` → 0, `Some(s)` → interned id + 1.
    fn intern_opt(&mut self, s: Option<&str>) -> u32 {
        match s {
            None => 0,
            Some(s) => self.intern(s) + 1,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.strings.len() as u32);
        for s in &self.strings {
            put_u32(&mut out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        out
    }
}

// --- column buffers ------------------------------------------------------

/// File-op tags in the `file_events` column stream (shared with the WAL
/// record codec, which must agree on the wire meaning of each tag).
pub(crate) const OP_CREATED: u8 = 0;
pub(crate) const OP_MODIFIED: u8 = 1;
pub(crate) const OP_DELETED: u8 = 2;
pub(crate) const OP_EXEC_HASH: u8 = 3;
pub(crate) const OP_EXEC_MISSING: u8 = 4;
pub(crate) const OP_DOWNLOAD_FAILED: u8 = 5;

#[derive(Default)]
struct Columns {
    session_id: Vec<u64>,
    honeypot_id: Vec<u16>,
    honeypot_ip: Vec<u32>,
    client_ip: Vec<u32>,
    client_port: Vec<u16>,
    protocol: Vec<u8>,
    start: Vec<i64>,
    end: Vec<i64>,
    end_reason: Vec<u8>,
    client_version: Vec<u32>,
    login_len: Vec<u32>,
    login_user: Vec<u32>,
    login_pass: Vec<u32>,
    login_ok: Vec<u8>,
    cmd_len: Vec<u32>,
    cmd_input: Vec<u32>,
    cmd_known: Vec<u8>,
    uri_len: Vec<u32>,
    uri: Vec<u32>,
    fe_len: Vec<u32>,
    fe_path: Vec<u32>,
    fe_tag: Vec<u8>,
    fe_hash: Vec<u32>,
    fe_src: Vec<u32>,
}

impl Columns {
    fn push(&mut self, rec: &SessionRecord, dict: &mut Interner) {
        self.session_id.push(rec.session_id);
        self.honeypot_id.push(rec.honeypot_id);
        self.honeypot_ip.push(rec.honeypot_ip.0);
        self.client_ip.push(rec.client_ip.0);
        self.client_port.push(rec.client_port);
        self.protocol.push(match rec.protocol {
            Protocol::Ssh => 0,
            Protocol::Telnet => 1,
        });
        self.start.push(rec.start.unix());
        self.end.push(rec.end.unix());
        self.end_reason.push(match rec.end_reason {
            SessionEndReason::ClientClose => 0,
            SessionEndReason::Timeout => 1,
        });
        self.client_version
            .push(dict.intern_opt(rec.client_version.as_deref()));

        self.login_len.push(rec.logins.len() as u32);
        for l in &rec.logins {
            self.login_user.push(dict.intern(&l.username));
            self.login_pass.push(dict.intern(&l.password));
            self.login_ok.push(u8::from(l.success));
        }
        self.cmd_len.push(rec.commands.len() as u32);
        for c in &rec.commands {
            self.cmd_input.push(dict.intern(&c.input));
            self.cmd_known.push(u8::from(c.known));
        }
        self.uri_len.push(rec.uris.len() as u32);
        for u in &rec.uris {
            self.uri.push(dict.intern(u));
        }
        self.fe_len.push(rec.file_events.len() as u32);
        for e in &rec.file_events {
            self.fe_path.push(dict.intern(&e.path));
            let tag = match &e.op {
                FileOp::Created { sha256 } => {
                    self.fe_hash.push(dict.intern(sha256));
                    OP_CREATED
                }
                FileOp::Modified { sha256 } => {
                    self.fe_hash.push(dict.intern(sha256));
                    OP_MODIFIED
                }
                FileOp::Deleted => OP_DELETED,
                FileOp::ExecAttempt { sha256: Some(h) } => {
                    self.fe_hash.push(dict.intern(h));
                    OP_EXEC_HASH
                }
                FileOp::ExecAttempt { sha256: None } => OP_EXEC_MISSING,
                FileOp::DownloadFailed => OP_DOWNLOAD_FAILED,
            };
            self.fe_tag.push(tag);
            self.fe_src.push(dict.intern_opt(e.source_uri.as_deref()));
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let n = self.session_id.len() as u32;
        put_u32(&mut out, n);
        for &v in &self.session_id {
            put_u64(&mut out, v);
        }
        for &v in &self.honeypot_id {
            put_u16(&mut out, v);
        }
        for &v in &self.honeypot_ip {
            put_u32(&mut out, v);
        }
        for &v in &self.client_ip {
            put_u32(&mut out, v);
        }
        for &v in &self.client_port {
            put_u16(&mut out, v);
        }
        out.extend_from_slice(&self.protocol);
        for &v in &self.start {
            put_i64(&mut out, v);
        }
        for &v in &self.end {
            put_i64(&mut out, v);
        }
        out.extend_from_slice(&self.end_reason);
        for &v in &self.client_version {
            put_u32(&mut out, v);
        }

        for &v in &self.login_len {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.login_user.len() as u32);
        for &v in &self.login_user {
            put_u32(&mut out, v);
        }
        for &v in &self.login_pass {
            put_u32(&mut out, v);
        }
        out.extend_from_slice(&self.login_ok);

        for &v in &self.cmd_len {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.cmd_input.len() as u32);
        for &v in &self.cmd_input {
            put_u32(&mut out, v);
        }
        out.extend_from_slice(&self.cmd_known);

        for &v in &self.uri_len {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.uri.len() as u32);
        for &v in &self.uri {
            put_u32(&mut out, v);
        }

        for &v in &self.fe_len {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.fe_tag.len() as u32);
        for &v in &self.fe_path {
            put_u32(&mut out, v);
        }
        out.extend_from_slice(&self.fe_tag);
        put_u32(&mut out, self.fe_hash.len() as u32);
        for &v in &self.fe_hash {
            put_u32(&mut out, v);
        }
        for &v in &self.fe_src {
            put_u32(&mut out, v);
        }
        out
    }
}

// --- segment metadata ----------------------------------------------------

/// What a segment's header + footer reveal without reading its blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment file.
    pub path: PathBuf,
    /// Sessions in the segment.
    pub rows: u64,
    /// Zone map: earliest session start (`None` for an empty segment).
    pub min_start: Option<DateTime>,
    /// Zone map: latest session start.
    pub max_start: Option<DateTime>,
}

impl SegmentMeta {
    /// Whether the segment may contain sessions starting inside the
    /// half-open window `[min, max)` — a segment whose earliest start is
    /// exactly `max` holds nothing the window can match. An unknown range
    /// is conservatively kept.
    pub fn overlaps(&self, min: DateTime, max: DateTime) -> bool {
        match (self.min_start, self.max_start) {
            (Some(lo), Some(hi)) => lo < max && hi >= min,
            _ => self.rows > 0,
        }
    }
}

// --- writer --------------------------------------------------------------

/// Serializes one segment. Records are pushed column-wise into memory and
/// the file is written (atomically, via a `.tmp` rename) on
/// [`SegmentWriter::finish`].
pub struct SegmentWriter {
    path: PathBuf,
    dict: Interner,
    cols: Columns,
    rows: u64,
    min_start: Option<i64>,
    max_start: Option<i64>,
}

impl SegmentWriter {
    /// Starts a segment that will live at `path` once finished.
    pub fn create(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            dict: Interner::default(),
            cols: Columns::default(),
            rows: 0,
            min_start: None,
            max_start: None,
        }
    }

    /// Buffers one record.
    pub fn push(&mut self, rec: &SessionRecord) {
        let s = rec.start.unix();
        self.min_start = Some(self.min_start.map_or(s, |m| m.min(s)));
        self.max_start = Some(self.max_start.map_or(s, |m| m.max(s)));
        self.cols.push(rec, &mut self.dict);
        self.rows += 1;
    }

    /// Rows buffered so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Serializes header, blocks and footer, then renames the segment
    /// into place. The seal is durable: the `.tmp` file is fsynced before
    /// the rename and the parent directory is fsynced after it, so a
    /// renamed segment survives a crash at any point (a crash mid-seal
    /// leaves at worst an orphaned `.tmp`, which recovery removes).
    pub fn finish(self) -> Result<SegmentMeta, SessionDbError> {
        let tmp = self.path.with_extension("hsdb.tmp");
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u16(&mut buf, VERSION);
        put_u16(&mut buf, 0); // flags

        for (tag, payload) in [
            (BLOCK_DICT, self.dict.encode()),
            (BLOCK_ROWS, self.cols.encode()),
        ] {
            buf.push(tag);
            put_u32(&mut buf, payload.len() as u32);
            let crc = crc32(&payload);
            buf.extend_from_slice(&payload);
            put_u32(&mut buf, crc);
        }

        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        put_u64(&mut footer, self.rows);
        put_i64(&mut footer, self.min_start.unwrap_or(0));
        put_i64(&mut footer, self.max_start.unwrap_or(0));
        let crc = crc32(&footer);
        put_u32(&mut footer, crc);
        footer.extend_from_slice(&FOOTER_MAGIC);
        buf.extend_from_slice(&footer);

        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| SessionDbError::io(&tmp, e))?;
            std::io::Write::write_all(&mut f, &buf).map_err(|e| SessionDbError::io(&tmp, e))?;
            f.sync_all().map_err(|e| SessionDbError::io(&tmp, e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| SessionDbError::io(&self.path, e))?;
        if let Some(dir) = self.path.parent() {
            sync_dir(dir)?;
        }
        Ok(SegmentMeta {
            path: self.path,
            rows: self.rows,
            min_start: self.min_start.map(DateTime::from_unix),
            max_start: self.max_start.map(DateTime::from_unix),
        })
    }
}

/// Fsyncs a directory so a just-renamed or just-removed entry inside it
/// survives a power loss. On platforms where directories cannot be
/// opened (or fsynced), the error is still surfaced — every platform we
/// target supports it.
pub(crate) fn sync_dir(dir: &std::path::Path) -> Result<(), SessionDbError> {
    let d = std::fs::File::open(dir).map_err(|e| SessionDbError::io(dir, e))?;
    d.sync_all().map_err(|e| SessionDbError::io(dir, e))
}

// --- reader --------------------------------------------------------------

/// Read-side dictionary: every entry borrows from the dictionary block's
/// payload, so resolving an id copies nothing until a row is rebuilt.
struct Dictionary<'a> {
    strings: Vec<&'a str>,
}

impl<'a> Dictionary<'a> {
    fn decode(payload: &'a [u8]) -> Result<Self, String> {
        let mut c = Cursor::new(payload);
        let n = c.u32()? as usize;
        let mut strings = Vec::with_capacity(n.min(payload.len() / 4));
        for i in 0..n {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| format!("dictionary entry {i} is not UTF-8: {e}"))?;
            strings.push(s);
        }
        if !c.done() {
            return Err("trailing bytes after dictionary".to_string());
        }
        Ok(Self { strings })
    }
}

fn u16_at(col: &[u8], i: usize) -> u16 {
    u16::from_le_bytes(col[2 * i..2 * i + 2].try_into().expect("2 bytes"))
}

fn u32_at(col: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(col[4 * i..4 * i + 4].try_into().expect("4 bytes"))
}

fn u64_at(col: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(col[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

fn i64_at(col: &[u8], i: usize) -> i64 {
    i64::from_le_bytes(col[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// Checks that a per-row length column sums to its stored total.
fn check_total(lens: &[u8], total: usize, what: &str) -> Result<(), String> {
    let sum: u64 = lens
        .chunks_exact(4)
        .map(|b| u64::from(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
        .sum();
    if sum != total as u64 {
        return Err(format!("{what} column lengths disagree with total"));
    }
    Ok(())
}

/// Checks that every byte of a tag column is at most `max`.
fn check_tags(tags: &[u8], max: u8, what: &str) -> Result<(), String> {
    match tags.iter().find(|&&t| t > max) {
        Some(t) => Err(format!("unknown {what} tag {t}")),
        None => Ok(()),
    }
}

/// Checks that every id in a u32 column is below `limit`.
fn check_ids(ids: &[u8], limit: usize) -> Result<(), String> {
    let max = ids
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .max();
    match max {
        Some(id) if id as usize >= limit => {
            Err(format!("dictionary id {id} out of range ({limit} entries)"))
        }
        _ => Ok(()),
    }
}

/// A rows block laid over its payload, one slice per column, with the
/// dictionary its ids resolve in. [`RowsBlock::parse`] checks every
/// length, tag and dictionary id before the first row is rebuilt, so
/// rebuilding cannot fail and a corrupt segment hands out no row.
struct RowsBlock<'a> {
    dict: Dictionary<'a>,
    n: usize,
    session_id: &'a [u8],
    honeypot_id: &'a [u8],
    honeypot_ip: &'a [u8],
    client_ip: &'a [u8],
    client_port: &'a [u8],
    protocol: &'a [u8],
    start: &'a [u8],
    end: &'a [u8],
    end_reason: &'a [u8],
    client_version: &'a [u8],
    login_len: &'a [u8],
    login_user: &'a [u8],
    login_pass: &'a [u8],
    login_ok: &'a [u8],
    cmd_len: &'a [u8],
    cmd_input: &'a [u8],
    cmd_known: &'a [u8],
    uri_len: &'a [u8],
    uri: &'a [u8],
    fe_len: &'a [u8],
    fe_path: &'a [u8],
    fe_tag: &'a [u8],
    fe_hash: &'a [u8],
    fe_src: &'a [u8],
}

impl<'a> RowsBlock<'a> {
    /// Lays the columns [`Columns::encode`] wrote over `payload` and
    /// checks them against `dict`.
    fn parse(payload: &'a [u8], dict: Dictionary<'a>) -> Result<Self, String> {
        let mut c = Cursor::new(payload);
        let n = c.u32()? as usize;
        let session_id = c.column(n, 8)?;
        let honeypot_id = c.column(n, 2)?;
        let honeypot_ip = c.column(n, 4)?;
        let client_ip = c.column(n, 4)?;
        let client_port = c.column(n, 2)?;
        let protocol = c.take(n)?;
        let start = c.column(n, 8)?;
        let end = c.column(n, 8)?;
        let end_reason = c.take(n)?;
        let client_version = c.column(n, 4)?;

        let login_len = c.column(n, 4)?;
        let login_total = c.u32()? as usize;
        check_total(login_len, login_total, "login")?;
        let login_user = c.column(login_total, 4)?;
        let login_pass = c.column(login_total, 4)?;
        let login_ok = c.take(login_total)?;

        let cmd_len = c.column(n, 4)?;
        let cmd_total = c.u32()? as usize;
        check_total(cmd_len, cmd_total, "command")?;
        let cmd_input = c.column(cmd_total, 4)?;
        let cmd_known = c.take(cmd_total)?;

        let uri_len = c.column(n, 4)?;
        let uri_total = c.u32()? as usize;
        check_total(uri_len, uri_total, "uri")?;
        let uri = c.column(uri_total, 4)?;

        let fe_len = c.column(n, 4)?;
        let fe_total = c.u32()? as usize;
        check_total(fe_len, fe_total, "file-event")?;
        let fe_path = c.column(fe_total, 4)?;
        let fe_tag = c.take(fe_total)?;
        let hash_total = c.u32()? as usize;
        let expect_hashes = fe_tag
            .iter()
            .filter(|&&t| matches!(t, OP_CREATED | OP_MODIFIED | OP_EXEC_HASH))
            .count();
        if hash_total != expect_hashes {
            return Err("file-event hash count disagrees with op tags".to_string());
        }
        let fe_hash = c.column(hash_total, 4)?;
        let fe_src = c.column(fe_total, 4)?;
        if !c.done() {
            return Err("trailing bytes after row columns".to_string());
        }

        check_tags(protocol, 1, "protocol")?;
        check_tags(end_reason, 1, "end-reason")?;
        check_tags(fe_tag, OP_DOWNLOAD_FAILED, "file-op")?;
        let entries = dict.strings.len();
        for ids in [login_user, login_pass, cmd_input, uri, fe_path, fe_hash] {
            check_ids(ids, entries)?;
        }
        // Optional strings store id + 1, with 0 for `None`.
        for ids in [client_version, fe_src] {
            check_ids(ids, entries + 1)?;
        }
        Ok(Self {
            dict,
            n,
            session_id,
            honeypot_id,
            honeypot_ip,
            client_ip,
            client_port,
            protocol,
            start,
            end,
            end_reason,
            client_version,
            login_len,
            login_user,
            login_pass,
            login_ok,
            cmd_len,
            cmd_input,
            cmd_known,
            uri_len,
            uri,
            fe_len,
            fe_path,
            fe_tag,
            fe_hash,
            fe_src,
        })
    }

    /// Rebuilds each row in turn into `rec` and hands it to `f`. The
    /// strings and lists `rec` holds are overwritten in place, so a row
    /// allocates only where it needs more room than the row before.
    fn rebuild(&self, rec: &mut SessionRecord, mut f: impl FnMut(&mut SessionRecord)) {
        let d = &self.dict.strings;
        let s = |col: &[u8], i: usize| d[u32_at(col, i) as usize];
        let opt = |col: &[u8], i: usize| match u32_at(col, i) {
            0 => None,
            id => Some(d[id as usize - 1]),
        };
        let (mut li, mut ci, mut ui, mut fi, mut hi) = (0, 0, 0, 0, 0);
        for r in 0..self.n {
            rec.session_id = u64_at(self.session_id, r);
            rec.honeypot_id = u16_at(self.honeypot_id, r);
            rec.honeypot_ip = Ipv4Addr(u32_at(self.honeypot_ip, r));
            rec.client_ip = Ipv4Addr(u32_at(self.client_ip, r));
            rec.client_port = u16_at(self.client_port, r);
            rec.protocol = match self.protocol[r] {
                0 => Protocol::Ssh,
                _ => Protocol::Telnet,
            };
            rec.start = DateTime::from_unix(i64_at(self.start, r));
            rec.end = DateTime::from_unix(i64_at(self.end, r));
            rec.end_reason = match self.end_reason[r] {
                0 => SessionEndReason::ClientClose,
                _ => SessionEndReason::Timeout,
            };
            set_opt(&mut rec.client_version, opt(self.client_version, r));

            let k = u32_at(self.login_len, r) as usize;
            refill(&mut rec.logins, k, |j, l| {
                set(&mut l.username, s(self.login_user, li + j));
                set(&mut l.password, s(self.login_pass, li + j));
                l.success = self.login_ok[li + j] != 0;
            });
            li += k;

            let k = u32_at(self.cmd_len, r) as usize;
            refill(&mut rec.commands, k, |j, c| {
                set(&mut c.input, s(self.cmd_input, ci + j));
                c.known = self.cmd_known[ci + j] != 0;
            });
            ci += k;

            let k = u32_at(self.uri_len, r) as usize;
            refill(&mut rec.uris, k, |j, u| set(u, s(self.uri, ui + j)));
            ui += k;

            let k = u32_at(self.fe_len, r) as usize;
            refill(&mut rec.file_events, k, |j, e| {
                set(&mut e.path, s(self.fe_path, fi + j));
                set_opt(&mut e.source_uri, opt(self.fe_src, fi + j));
                let mut hash = || {
                    let mut h = take_hash(&mut e.op);
                    set(&mut h, s(self.fe_hash, hi));
                    hi += 1;
                    h
                };
                e.op = match self.fe_tag[fi + j] {
                    OP_CREATED => FileOp::Created { sha256: hash() },
                    OP_MODIFIED => FileOp::Modified { sha256: hash() },
                    OP_DELETED => FileOp::Deleted,
                    OP_EXEC_HASH => FileOp::ExecAttempt {
                        sha256: Some(hash()),
                    },
                    OP_EXEC_MISSING => FileOp::ExecAttempt { sha256: None },
                    _ => FileOp::DownloadFailed,
                };
            });
            fi += k;

            f(rec);
        }
    }
}

/// Overwrites `s` with `v`, keeping its allocation.
fn set(s: &mut String, v: &str) {
    s.clear();
    s.push_str(v);
}

fn set_opt(slot: &mut Option<String>, v: Option<&str>) {
    match v {
        Some(v) => set(slot.get_or_insert_with(String::new), v),
        None => *slot = None,
    }
}

/// The hash string `op` carries (empty if none), left in place of it
/// for the next op to reuse.
fn take_hash(op: &mut FileOp) -> String {
    match std::mem::replace(op, FileOp::Deleted) {
        FileOp::Created { sha256 }
        | FileOp::Modified { sha256 }
        | FileOp::ExecAttempt {
            sha256: Some(sha256),
        } => sha256,
        _ => String::new(),
    }
}

/// Resizes `items` to `n`, keeping the first items (and the strings in
/// them) for `fill` to overwrite, and calls `fill(j, item)` on each.
fn refill<T: Blank>(items: &mut Vec<T>, n: usize, mut fill: impl FnMut(usize, &mut T)) {
    items.truncate(n);
    items.resize_with(n, T::blank);
    for (j, item) in items.iter_mut().enumerate() {
        fill(j, item);
    }
}

/// An empty value for [`refill`] and the fold to overwrite.
trait Blank {
    fn blank() -> Self;
}

impl Blank for String {
    fn blank() -> Self {
        String::new()
    }
}

impl Blank for LoginAttempt {
    fn blank() -> Self {
        LoginAttempt {
            username: String::new(),
            password: String::new(),
            success: false,
        }
    }
}

impl Blank for CommandRecord {
    fn blank() -> Self {
        CommandRecord {
            input: String::new(),
            known: false,
        }
    }
}

impl Blank for FileEvent {
    fn blank() -> Self {
        FileEvent {
            path: String::new(),
            op: FileOp::Deleted,
            source_uri: None,
        }
    }
}

impl Blank for SessionRecord {
    fn blank() -> Self {
        SessionRecord {
            session_id: 0,
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(0),
            client_ip: Ipv4Addr(0),
            client_port: 0,
            protocol: Protocol::Ssh,
            start: DateTime::from_unix(0),
            end: DateTime::from_unix(0),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: Vec::new(),
            commands: Vec::new(),
            uris: Vec::new(),
            file_events: Vec::new(),
        }
    }
}

/// Validates and decodes one segment file.
///
/// [`SegmentReader::open`] touches only the 8-byte header and 32-byte
/// footer (two seeks), so opening a store with thousands of segments is
/// cheap; block payloads and their CRCs are verified when the rows are
/// read, by [`SegmentReader::fold`] or [`SegmentReader::read_all`].
#[derive(Debug, Clone)]
pub struct SegmentReader {
    meta: SegmentMeta,
}

impl SegmentReader {
    /// Opens `path`, validating magic, version and footer.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SessionDbError> {
        let path = path.into();
        let mut f = std::fs::File::open(&path).map_err(|e| SessionDbError::io(&path, e))?;
        let len = f
            .metadata()
            .map_err(|e| SessionDbError::io(&path, e))?
            .len();
        if len < HEADER_LEN {
            return Err(SessionDbError::BadMagic {
                path: path.display().to_string(),
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut header)
            .map_err(|e| SessionDbError::io(&path, e))?;
        if header[0..4] != MAGIC {
            return Err(SessionDbError::BadMagic {
                path: path.display().to_string(),
            });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(SessionDbError::BadVersion {
                path: path.display().to_string(),
                found: version,
            });
        }
        if len < HEADER_LEN + FOOTER_LEN {
            return Err(SessionDbError::corrupt(
                &path,
                "file too short for a footer",
            ));
        }
        f.seek(SeekFrom::End(-(FOOTER_LEN as i64)))
            .map_err(|e| SessionDbError::io(&path, e))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        f.read_exact(&mut footer)
            .map_err(|e| SessionDbError::io(&path, e))?;
        if footer[28..32] != FOOTER_MAGIC {
            return Err(SessionDbError::corrupt(
                &path,
                "footer magic missing (truncated or torn write)",
            ));
        }
        let fields = &footer[0..24];
        let stored_crc = u32::from_le_bytes(footer[24..28].try_into().expect("4 bytes"));
        if crc32(fields) != stored_crc {
            return Err(SessionDbError::corrupt(&path, "footer checksum mismatch"));
        }
        let rows = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let min_start = i64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let max_start = i64::from_le_bytes(footer[16..24].try_into().expect("8 bytes"));
        Ok(Self {
            meta: SegmentMeta {
                path,
                rows,
                min_start: (rows > 0).then(|| DateTime::from_unix(min_start)),
                max_start: (rows > 0).then(|| DateTime::from_unix(max_start)),
            },
        })
    }

    /// Header/footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// Folds every row into `acc`, in order: reads the file, verifies
    /// every block's CRC and checks every tag and dictionary id of the
    /// rows block, then calls `step(&mut acc, row)` once per row. The rows
    /// are rebuilt one after another into a single record whose strings
    /// and lists are reused, so `step` sees each row only for the call.
    /// A corrupt segment is an `Err` before `step` sees any row.
    pub fn fold<T>(
        &self,
        mut acc: T,
        mut step: impl FnMut(&mut T, &SessionRecord),
    ) -> Result<T, SessionDbError> {
        self.fold_rows(|rec| step(&mut acc, rec))?;
        Ok(acc)
    }

    /// Reads and CRC-verifies every block, decoding the full batch: the
    /// rows of [`SegmentReader::fold`], each moved out as it is built.
    pub fn read_all(&self) -> Result<Vec<SessionRecord>, SessionDbError> {
        let mut rows = Vec::new();
        self.fold_rows(|rec| rows.push(std::mem::replace(rec, SessionRecord::blank())))?;
        Ok(rows)
    }

    /// The one row decoder behind [`SegmentReader::fold`] and
    /// [`SegmentReader::read_all`].
    fn fold_rows(&self, f: impl FnMut(&mut SessionRecord)) -> Result<(), SessionDbError> {
        let path = &self.meta.path;
        let bytes = std::fs::read(path).map_err(|e| SessionDbError::io(path, e))?;
        let rows = self
            .rows_block(&bytes)
            .map_err(|d| SessionDbError::corrupt(path, d))?;
        if let Some(rows) = rows {
            rows.rebuild(&mut SessionRecord::blank(), f);
        }
        Ok(())
    }

    /// Walks the blocks of the segment file `bytes`, verifying each CRC,
    /// and returns the rows block, checked and holding as many rows as
    /// the footer says (`None` for a segment without one, which must be
    /// empty). Each rows block resolves its ids in the dictionary block
    /// before it.
    fn rows_block<'a>(&self, bytes: &'a [u8]) -> Result<Option<RowsBlock<'a>>, String> {
        let len = bytes.len() as u64;
        if len < HEADER_LEN + FOOTER_LEN {
            return Err("file too short for a footer".to_string());
        }
        let blocks_end = (len - FOOTER_LEN) as usize;
        let mut pos = HEADER_LEN as usize;
        let mut dict: Option<Dictionary<'a>> = None;
        let mut rows: Option<RowsBlock<'a>> = None;
        while pos < blocks_end {
            if pos + 5 > blocks_end {
                return Err("truncated block header".to_string());
            }
            let tag = bytes[pos];
            let plen =
                u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
            let body_start = pos + 5;
            let body_end = body_start
                .checked_add(plen)
                .ok_or("block length overflow")?;
            if body_end + 4 > blocks_end {
                return Err("block overruns footer".to_string());
            }
            let payload = &bytes[body_start..body_end];
            let stored_crc =
                u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().expect("4 bytes"));
            if crc32(payload) != stored_crc {
                return Err(format!("block tag {tag} checksum mismatch"));
            }
            match tag {
                BLOCK_DICT => dict = Some(Dictionary::decode(payload)?),
                BLOCK_ROWS => {
                    let d = dict.take().ok_or("rows block before dictionary")?;
                    rows = Some(RowsBlock::parse(payload, d)?);
                }
                // Unknown block tags are skipped (forward compatibility).
                _ => {}
            }
            pos = body_end + 4;
        }
        let held = rows.as_ref().map_or(0, |r| r.n);
        if held as u64 != self.meta.rows {
            return Err(format!(
                "footer says {} rows, blocks hold {held}",
                self.meta.rows
            ));
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestDir;
    use hutil::Date;

    fn rec(i: u64) -> SessionRecord {
        SessionRecord {
            session_id: i,
            honeypot_id: (i % 7) as u16,
            honeypot_ip: Ipv4Addr(0x0a00_0001 + i as u32),
            client_ip: Ipv4Addr(0xc0a8_0001 + i as u32),
            client_port: 1024 + (i % 60000) as u16,
            protocol: if i.is_multiple_of(5) {
                Protocol::Telnet
            } else {
                Protocol::Ssh
            },
            start: Date::new(2022, 3, 1)
                .at_midnight()
                .plus_secs(i as i64 * 3600),
            end: Date::new(2022, 3, 1)
                .at_midnight()
                .plus_secs(i as i64 * 3600 + 40),
            end_reason: if i.is_multiple_of(2) {
                SessionEndReason::ClientClose
            } else {
                SessionEndReason::Timeout
            },
            client_version: (!i.is_multiple_of(3)).then(|| format!("SSH-2.0-Go-{}", i % 4)),
            logins: vec![LoginAttempt {
                username: "root".into(),
                password: format!("pw{}", i % 10),
                success: i.is_multiple_of(2),
            }],
            commands: (0..(i % 4))
                .map(|k| CommandRecord {
                    input: format!("cmd {k}"),
                    known: k.is_multiple_of(2),
                })
                .collect(),
            uris: if i.is_multiple_of(6) {
                vec![format!("http://1.2.3.{}/x.sh", i % 250)]
            } else {
                vec![]
            },
            file_events: if i.is_multiple_of(6) {
                vec![
                    FileEvent {
                        path: "/tmp/x.sh".into(),
                        op: FileOp::Created {
                            sha256: "ab".repeat(32),
                        },
                        source_uri: Some(format!("http://1.2.3.{}/x.sh", i % 250)),
                    },
                    FileEvent {
                        path: "/tmp/x.sh".into(),
                        op: FileOp::ExecAttempt {
                            sha256: Some("ab".repeat(32)),
                        },
                        source_uri: None,
                    },
                    FileEvent {
                        path: "/tmp/gone".into(),
                        op: FileOp::ExecAttempt { sha256: None },
                        source_uri: None,
                    },
                ]
            } else {
                vec![]
            },
        }
    }

    fn tmpdir(name: &str) -> TestDir {
        TestDir::new(&format!("sessiondb-seg-{name}"))
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("seg-000000.hsdb");
        let mut w = SegmentWriter::create(&path);
        let recs: Vec<SessionRecord> = (0..500).map(rec).collect();
        for r in &recs {
            w.push(r);
        }
        let meta = w.finish().unwrap();
        assert_eq!(meta.rows, 500);
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.meta().rows, 500);
        let got = r.read_all().unwrap();
        assert_eq!(got, recs);
        let folded = r.fold(Vec::new(), |v, x| v.push(x.clone())).unwrap();
        assert_eq!(folded, recs, "the fold hands out what read_all returns");
    }

    #[test]
    fn zone_map_reflects_start_range() {
        let dir = tmpdir("zonemap");
        let path = dir.join("seg-000000.hsdb");
        let mut w = SegmentWriter::create(&path);
        for i in 0..10 {
            w.push(&rec(i));
        }
        let meta = w.finish().unwrap();
        let lo = Date::new(2022, 3, 1).at_midnight();
        assert_eq!(meta.min_start, Some(lo));
        assert_eq!(meta.max_start, Some(lo.plus_secs(9 * 3600)));
        assert!(meta.overlaps(lo.plus_secs(3600), lo.plus_secs(7200)));
        assert!(!meta.overlaps(lo.plus_secs(-7200), lo.plus_secs(-3600)));
        // Half-open boundaries: a window ending exactly at min_start holds
        // nothing from this segment, one starting exactly at max_start does.
        assert!(!meta.overlaps(lo.plus_secs(-3600), lo));
        assert!(meta.overlaps(lo.plus_secs(9 * 3600), lo.plus_secs(10 * 3600)));
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join("seg-000000.hsdb");
        let meta = SegmentWriter::create(&path).finish().unwrap();
        assert_eq!(meta.rows, 0);
        assert_eq!(meta.min_start, None);
        let r = SegmentReader::open(&path).unwrap();
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn truncation_is_a_structured_error() {
        let dir = tmpdir("trunc");
        let path = dir.join("seg-000000.hsdb");
        let mut w = SegmentWriter::create(&path);
        for i in 0..50 {
            w.push(&rec(i));
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() - 1, bytes.len() / 2, 10, 0] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            let err = SegmentReader::open(&path).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SessionDbError::Corrupt { .. } | SessionDbError::BadMagic { .. }
                ),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_structured_errors() {
        let dir = tmpdir("flip");
        let path = dir.join("seg-000000.hsdb");
        let mut w = SegmentWriter::create(&path);
        for i in 0..50 {
            w.push(&rec(i));
        }
        w.finish().unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of offsets covering header, dictionary,
        // rows and footer. Every flip must yield Err, never a panic; a
        // flipped *header/footer* magic yields BadMagic/Corrupt, flipped
        // payload bytes trip the block CRCs.
        let step = (clean.len() / 97).max(1);
        for off in (0..clean.len()).step_by(step) {
            let mut bytes = clean.clone();
            bytes[off] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            let result = SegmentReader::open(&path).and_then(|r| r.read_all());
            assert!(result.is_err(), "bit flip at {off} went undetected");
            let mut handed = 0;
            let folded = SegmentReader::open(&path).and_then(|r| r.fold((), |_, _| handed += 1));
            assert!(
                folded.is_err(),
                "bit flip at {off} went undetected by the fold"
            );
            assert_eq!(handed, 0, "bit flip at {off}: the fold handed out rows");
        }
    }

    /// A damaged tag or dictionary id in the segment's last row, under a
    /// valid CRC: the fold checks the whole rows block first, so it
    /// hands out no row at all, as `read_all` returns none.
    #[test]
    fn a_bad_tag_or_id_in_the_last_row_hands_out_no_row() {
        let dir = tmpdir("late-damage");
        let path = dir.join("seg-000000.hsdb");
        type Damage = fn(&mut Columns);
        let damage: [(&str, Damage); 5] = [
            ("protocol tag", |c| *c.protocol.last_mut().unwrap() = 2),
            ("end-reason tag", |c| *c.end_reason.last_mut().unwrap() = 9),
            // The last file event is an exec of a missing file: no hash,
            // so only the tag check can catch it.
            ("file-op tag", |c| *c.fe_tag.last_mut().unwrap() = 6),
            ("login id", |c| {
                *c.login_pass.last_mut().unwrap() = 1_000_000
            }),
            ("optional id", |c| {
                *c.client_version.last_mut().unwrap() = 1_000_000
            }),
        ];
        for (what, damage) in damage {
            let mut w = SegmentWriter::create(&path);
            for i in 0..50 {
                w.push(&rec(i));
            }
            damage(&mut w.cols);
            w.finish().unwrap();
            let r = SegmentReader::open(&path).unwrap();
            let mut handed = 0;
            let err = r.fold((), |_, _| handed += 1).expect_err(what);
            assert!(
                matches!(err, SessionDbError::Corrupt { .. }),
                "{what}: {err}"
            );
            assert_eq!(handed, 0, "{what}: rows handed out before the check");
            assert!(r.read_all().is_err(), "{what}");
        }
    }

    /// Rows with more, then fewer, then more strings and file events
    /// than the row before: the reused record never keeps a stale item.
    #[test]
    fn reused_record_never_keeps_a_previous_rows_items() {
        let dir = tmpdir("reuse");
        let path = dir.join("seg-000000.hsdb");
        let mut recs: Vec<SessionRecord> = (0..40).map(rec).collect();
        recs[7].client_version = None;
        recs[9].logins.clear();
        recs[12].file_events[0].source_uri = None;
        recs[18].file_events.truncate(1);
        recs[24].file_events.reverse();
        recs[13].uris = vec!["http://a/1".into(), "http://a/2".into()];
        recs[14].uris = vec!["http://b/1".into()];
        recs[15].uris = vec![
            "http://c/1".into(),
            "http://c/2".into(),
            "http://c/3".into(),
        ];
        let mut w = SegmentWriter::create(&path);
        for r in &recs {
            w.push(r);
        }
        w.finish().unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let mut at = 0;
        r.fold((), |_, row| {
            assert_eq!(row, &recs[at], "row {at}");
            at += 1;
        })
        .unwrap();
        assert_eq!(at, recs.len());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = tmpdir("version");
        let path = dir.join("seg-000000.hsdb");
        let mut w = SegmentWriter::create(&path);
        w.push(&rec(1));
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(SessionDbError::BadVersion { found: 99, .. })
        ));
    }
}
