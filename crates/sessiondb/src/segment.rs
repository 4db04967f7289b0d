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

/// Read-side dictionary.
struct Dictionary {
    strings: Vec<String>,
}

impl Dictionary {
    fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut c = Cursor::new(payload);
        let n = c.u32()? as usize;
        let mut strings = Vec::with_capacity(n.min(payload.len() / 4));
        for i in 0..n {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| format!("dictionary entry {i} is not UTF-8: {e}"))?;
            strings.push(s.to_string());
        }
        if !c.done() {
            return Err("trailing bytes after dictionary".to_string());
        }
        Ok(Self { strings })
    }

    fn get(&self, id: u32) -> Result<&str, String> {
        self.strings
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| format!("dictionary id {id} out of range ({})", self.strings.len()))
    }

    /// Inverse of [`Interner::intern_opt`].
    fn get_opt(&self, id: u32) -> Result<Option<&str>, String> {
        if id == 0 {
            Ok(None)
        } else {
            self.get(id - 1).map(Some)
        }
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

/// Decodes a rows payload back into records, resolving dictionary ids.
fn decode_rows(payload: &[u8], dict: &Dictionary) -> Result<Vec<SessionRecord>, String> {
    let mut c = Cursor::new(payload);
    let n = c.u32()? as usize;
    let mut session_id = Vec::with_capacity(n);
    for _ in 0..n {
        session_id.push(c.u64()?);
    }
    let mut honeypot_id = Vec::with_capacity(n);
    for _ in 0..n {
        honeypot_id.push(c.u16()?);
    }
    let mut honeypot_ip = Vec::with_capacity(n);
    for _ in 0..n {
        honeypot_ip.push(c.u32()?);
    }
    let mut client_ip = Vec::with_capacity(n);
    for _ in 0..n {
        client_ip.push(c.u32()?);
    }
    let mut client_port = Vec::with_capacity(n);
    for _ in 0..n {
        client_port.push(c.u16()?);
    }
    let protocol = c.take(n)?.to_vec();
    let mut start = Vec::with_capacity(n);
    for _ in 0..n {
        start.push(c.i64()?);
    }
    let mut end = Vec::with_capacity(n);
    for _ in 0..n {
        end.push(c.i64()?);
    }
    let end_reason = c.take(n)?.to_vec();
    let mut client_version = Vec::with_capacity(n);
    for _ in 0..n {
        client_version.push(c.u32()?);
    }

    let mut login_len = Vec::with_capacity(n);
    for _ in 0..n {
        login_len.push(c.u32()? as usize);
    }
    let login_total = c.u32()? as usize;
    if login_len.iter().sum::<usize>() != login_total {
        return Err("login column lengths disagree with total".to_string());
    }
    let mut login_user = Vec::with_capacity(login_total);
    for _ in 0..login_total {
        login_user.push(c.u32()?);
    }
    let mut login_pass = Vec::with_capacity(login_total);
    for _ in 0..login_total {
        login_pass.push(c.u32()?);
    }
    let login_ok = c.take(login_total)?.to_vec();

    let mut cmd_len = Vec::with_capacity(n);
    for _ in 0..n {
        cmd_len.push(c.u32()? as usize);
    }
    let cmd_total = c.u32()? as usize;
    if cmd_len.iter().sum::<usize>() != cmd_total {
        return Err("command column lengths disagree with total".to_string());
    }
    let mut cmd_input = Vec::with_capacity(cmd_total);
    for _ in 0..cmd_total {
        cmd_input.push(c.u32()?);
    }
    let cmd_known = c.take(cmd_total)?.to_vec();

    let mut uri_len = Vec::with_capacity(n);
    for _ in 0..n {
        uri_len.push(c.u32()? as usize);
    }
    let uri_total = c.u32()? as usize;
    if uri_len.iter().sum::<usize>() != uri_total {
        return Err("uri column lengths disagree with total".to_string());
    }
    let mut uri = Vec::with_capacity(uri_total);
    for _ in 0..uri_total {
        uri.push(c.u32()?);
    }

    let mut fe_len = Vec::with_capacity(n);
    for _ in 0..n {
        fe_len.push(c.u32()? as usize);
    }
    let fe_total = c.u32()? as usize;
    if fe_len.iter().sum::<usize>() != fe_total {
        return Err("file-event column lengths disagree with total".to_string());
    }
    let mut fe_path = Vec::with_capacity(fe_total);
    for _ in 0..fe_total {
        fe_path.push(c.u32()?);
    }
    let fe_tag = c.take(fe_total)?.to_vec();
    let hash_total = c.u32()? as usize;
    let expect_hashes = fe_tag
        .iter()
        .filter(|&&t| matches!(t, OP_CREATED | OP_MODIFIED | OP_EXEC_HASH))
        .count();
    if hash_total != expect_hashes {
        return Err("file-event hash count disagrees with op tags".to_string());
    }
    let mut fe_hash = Vec::with_capacity(hash_total);
    for _ in 0..hash_total {
        fe_hash.push(c.u32()?);
    }
    let mut fe_src = Vec::with_capacity(fe_total);
    for _ in 0..fe_total {
        fe_src.push(c.u32()?);
    }
    if !c.done() {
        return Err("trailing bytes after row columns".to_string());
    }

    // Reassemble.
    let mut out = Vec::with_capacity(n);
    let (mut li, mut ci, mut ui, mut fi, mut hi) = (0usize, 0usize, 0usize, 0usize, 0usize);
    for r in 0..n {
        let logins = (0..login_len[r])
            .map(|_| {
                let l = LoginAttempt {
                    username: dict.get(login_user[li])?.to_string(),
                    password: dict.get(login_pass[li])?.to_string(),
                    success: login_ok[li] != 0,
                };
                li += 1;
                Ok(l)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let commands = (0..cmd_len[r])
            .map(|_| {
                let cr = CommandRecord {
                    input: dict.get(cmd_input[ci])?.to_string(),
                    known: cmd_known[ci] != 0,
                };
                ci += 1;
                Ok(cr)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let uris = (0..uri_len[r])
            .map(|_| {
                let s = dict.get(uri[ui])?.to_string();
                ui += 1;
                Ok(s)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let file_events = (0..fe_len[r])
            .map(|_| {
                let mut hash = || {
                    let h = dict.get(fe_hash[hi])?.to_string();
                    hi += 1;
                    Ok::<String, String>(h)
                };
                let op = match fe_tag[fi] {
                    OP_CREATED => FileOp::Created { sha256: hash()? },
                    OP_MODIFIED => FileOp::Modified { sha256: hash()? },
                    OP_DELETED => FileOp::Deleted,
                    OP_EXEC_HASH => FileOp::ExecAttempt {
                        sha256: Some(hash()?),
                    },
                    OP_EXEC_MISSING => FileOp::ExecAttempt { sha256: None },
                    OP_DOWNLOAD_FAILED => FileOp::DownloadFailed,
                    t => return Err(format!("unknown file-op tag {t}")),
                };
                let ev = FileEvent {
                    path: dict.get(fe_path[fi])?.to_string(),
                    op,
                    source_uri: dict.get_opt(fe_src[fi])?.map(str::to_string),
                };
                fi += 1;
                Ok(ev)
            })
            .collect::<Result<Vec<_>, String>>()?;

        out.push(SessionRecord {
            session_id: session_id[r],
            honeypot_id: honeypot_id[r],
            honeypot_ip: Ipv4Addr(honeypot_ip[r]),
            client_ip: Ipv4Addr(client_ip[r]),
            client_port: client_port[r],
            protocol: match protocol[r] {
                0 => Protocol::Ssh,
                1 => Protocol::Telnet,
                t => return Err(format!("unknown protocol tag {t}")),
            },
            start: DateTime::from_unix(start[r]),
            end: DateTime::from_unix(end[r]),
            end_reason: match end_reason[r] {
                0 => SessionEndReason::ClientClose,
                1 => SessionEndReason::Timeout,
                t => return Err(format!("unknown end-reason tag {t}")),
            },
            client_version: dict.get_opt(client_version[r])?.map(str::to_string),
            logins,
            commands,
            uris,
            file_events,
        });
    }
    Ok(out)
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

/// Validates and decodes one segment file.
///
/// [`SegmentReader::open`] touches only the 8-byte header and 32-byte
/// footer (two seeks), so opening a store with thousands of segments is
/// cheap; block payloads and their CRCs are verified by
/// [`SegmentReader::read_all`].
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

    /// Reads and CRC-verifies every block, decoding the full batch.
    pub fn read_all(&self) -> Result<Vec<SessionRecord>, SessionDbError> {
        let path = &self.meta.path;
        let bytes = std::fs::read(path).map_err(|e| SessionDbError::io(path, e))?;
        let len = bytes.len() as u64;
        if len < HEADER_LEN + FOOTER_LEN {
            return Err(SessionDbError::corrupt(path, "file too short for a footer"));
        }
        let blocks_end = (len - FOOTER_LEN) as usize;
        let mut pos = HEADER_LEN as usize;
        let mut dict: Option<Dictionary> = None;
        let mut rows: Option<Vec<SessionRecord>> = None;
        while pos < blocks_end {
            if pos + 5 > blocks_end {
                return Err(SessionDbError::corrupt(path, "truncated block header"));
            }
            let tag = bytes[pos];
            let plen =
                u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
            let body_start = pos + 5;
            let body_end = body_start
                .checked_add(plen)
                .ok_or_else(|| SessionDbError::corrupt(path, "block length overflow"))?;
            if body_end + 4 > blocks_end {
                return Err(SessionDbError::corrupt(path, "block overruns footer"));
            }
            let payload = &bytes[body_start..body_end];
            let stored_crc =
                u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().expect("4 bytes"));
            if crc32(payload) != stored_crc {
                return Err(SessionDbError::corrupt(
                    path,
                    format!("block tag {tag} checksum mismatch"),
                ));
            }
            match tag {
                BLOCK_DICT => {
                    dict = Some(
                        Dictionary::decode(payload)
                            .map_err(|d| SessionDbError::corrupt(path, d))?,
                    );
                }
                BLOCK_ROWS => {
                    let d = dict.as_ref().ok_or_else(|| {
                        SessionDbError::corrupt(path, "rows block before dictionary")
                    })?;
                    rows = Some(
                        decode_rows(payload, d).map_err(|d| SessionDbError::corrupt(path, d))?,
                    );
                }
                // Unknown block tags are skipped (forward compatibility).
                _ => {}
            }
            pos = body_end + 4;
        }
        let rows = rows.unwrap_or_default();
        if rows.len() as u64 != self.meta.rows {
            return Err(SessionDbError::corrupt(
                path,
                format!(
                    "footer says {} rows, blocks hold {}",
                    self.meta.rows,
                    rows.len()
                ),
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
        }
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
