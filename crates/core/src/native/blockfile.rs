//! Page-aligned block-file storage for out-of-core index nodes.
//!
//! A [`BlockFile`] is a flat file of fixed-size pages ([`PAGE_BYTES`]).
//! Payloads (serialized index nodes, plus one directory blob per tree)
//! are stored in *extents* — runs of contiguous pages — each headed by a
//! 16-byte header carrying a magic tag, the extent length, the payload
//! length and an FNV-1a checksum of the payload. Page 0 is the
//! superblock; it records the file geometry and the page of the client's
//! directory extent so a tree can be reopened and re-walked.
//!
//! Freed extents go to a first-fit free list (coalesced with adjacent
//! free runs), so node churn from delete/merge storms reuses pages
//! instead of growing the file. On [`BlockFile::open`] the free list is
//! rebuilt by scanning extent heads: any page that does not start a
//! checksum-valid live extent is free.
//!
//! Every fallible operation returns a [`BlockFileError`] with enough
//! context (path, page, what failed) for the harness binaries to print a
//! one-line diagnosis and exit with the usage/IO code — a deliberately
//! corrupted page must fail loudly, not panic.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed page size (a common OS page: node payloads are page-aligned so
/// a cold node read is a predictable number of page faults).
pub const PAGE_BYTES: u64 = 4096;

/// Extent-header magic for a live extent.
const LIVE_MAGIC: u32 = 0x4d45_544c; // "LTEM" little-endian
/// Extent-header magic written over a freed extent's head page.
const FREE_MAGIC: u32 = 0x4545_5246; // "FREE"
/// Superblock magic (page 0).
const SUPER_MAGIC: u32 = 0x4642_544d; // "MTBF"
/// Bytes of the extent header at the start of a head page.
const HEADER_BYTES: u64 = 16;
/// Bytes a load reads before it knows the payload length: enough for
/// the header and a typical node, so most loads are one `pread`.
/// Copying the whole 4 KiB head page instead cost ~0.1–0.2 µs more per
/// load of a ~160-byte node (page-cache reads on a 2-vCPU x86 VM).
const FIRST_READ_BYTES: u64 = 1024;

/// A contextful block-file failure: what was attempted, where, and the
/// underlying I/O error when one exists.
#[derive(Debug)]
pub struct BlockFileError {
    /// Human-readable description of the failed operation.
    pub context: String,
    /// Underlying I/O error, if the failure came from the OS.
    pub source: Option<io::Error>,
}

impl BlockFileError {
    /// A storage-layer failure with no underlying OS error (corruption,
    /// out-of-range access, malformed payloads).
    pub fn new(context: impl Into<String>) -> Self {
        BlockFileError {
            context: context.into(),
            source: None,
        }
    }

    fn io(context: impl Into<String>, e: io::Error) -> Self {
        BlockFileError {
            context: context.into(),
            source: Some(e),
        }
    }
}

impl fmt::Display for BlockFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(e) => write!(f, "{}: {e}", self.context),
            None => write!(f, "{}", self.context),
        }
    }
}

impl std::error::Error for BlockFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e as _)
    }
}

/// Shorthand for block-file results.
pub type Result<T> = std::result::Result<T, BlockFileError>;

/// A run of contiguous free pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeRun {
    page: u64,
    len: u64,
}

/// I/O counters, cumulative over the file's lifetime. Pages, not bytes:
/// the page is the fault granularity the native backend reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Pages read (head + continuation).
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Extents allocated.
    pub allocs: u64,
    /// Extents freed.
    pub frees: u64,
    /// Extents read ahead of demand by [`BlockFile::prefetch`] (their
    /// pages are also counted in `pages_read`).
    pub prefetches: u64,
}

/// Fixed-size-page block file with extent allocation and a free list.
#[derive(Debug)]
pub struct BlockFile {
    file: File,
    path: PathBuf,
    /// Total pages, superblock included.
    pages: u64,
    /// Sorted, coalesced free runs (never includes page 0).
    free: Vec<FreeRun>,
    /// Unlink the file on drop (temp files).
    temp: bool,
    stats: BlockStats,
}

/// FNV-1a over the payload; cheap, dependency-free, and wrong with
/// overwhelming probability on any corrupted byte.
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn pages_for(payload_len: u64) -> u64 {
    (HEADER_BYTES + payload_len).div_ceil(PAGE_BYTES).max(1)
}

impl BlockFile {
    /// Creates (truncating) a block file at `path` with an empty
    /// superblock.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| BlockFileError::io(format!("create block file {}", path.display()), e))?;
        let mut bf = BlockFile {
            file,
            path,
            pages: 1,
            free: Vec::new(),
            temp: false,
            stats: BlockStats::default(),
        };
        bf.write_super(None)?;
        Ok(bf)
    }

    /// Creates a block file at a unique path under the system temp
    /// directory; the file is unlinked when the [`BlockFile`] drops.
    pub fn temp() -> Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("metal-native-{}-{n}.blk", std::process::id()));
        let mut bf = Self::create(&path)?;
        bf.temp = true;
        Ok(bf)
    }

    /// Opens an existing block file, validating the superblock and
    /// rebuilding the free list by scanning extent heads.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| BlockFileError::io(format!("open block file {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| BlockFileError::io(format!("stat {}", path.display()), e))?
            .len();
        if len < PAGE_BYTES || len % PAGE_BYTES != 0 {
            return Err(BlockFileError::new(format!(
                "{}: file length {len} is not a whole number of {PAGE_BYTES}-byte pages",
                path.display()
            )));
        }
        let mut bf = BlockFile {
            file,
            path,
            pages: len / PAGE_BYTES,
            free: Vec::new(),
            temp: false,
            stats: BlockStats::default(),
        };
        let mut sb = [0u8; 16];
        bf.read_at(0, &mut sb)?;
        if u32::from_le_bytes(sb[0..4].try_into().unwrap()) != SUPER_MAGIC {
            return Err(BlockFileError::new(format!(
                "{}: bad superblock magic (not a metal block file, or page 0 corrupted)",
                bf.path.display()
            )));
        }
        // Rebuild the free list: walk extent heads; a page that does not
        // start a checksum-valid live extent is free.
        let mut p = 1u64;
        let mut buf = Vec::new();
        while p < bf.pages {
            match bf.probe_extent(p, &mut buf) {
                Some(len) => p += len,
                None => {
                    bf.release_run(FreeRun { page: p, len: 1 });
                    p += 1;
                }
            }
        }
        Ok(bf)
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Total pages in the file.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|r| r.len).sum()
    }

    /// Stores `payload` in a fresh extent and returns its head page.
    pub fn store(&mut self, payload: &[u8]) -> Result<u64> {
        let len = pages_for(payload.len() as u64);
        let page = self.alloc_run(len)?;
        self.write_extent(page, len, payload)?;
        self.stats.allocs += 1;
        Ok(page)
    }

    /// Rewrites the extent at `page` with `payload`, in place when the
    /// existing extent has room, else relocating (free + store). Returns
    /// the extent's (possibly new) head page.
    pub fn update(&mut self, page: u64, payload: &[u8]) -> Result<u64> {
        let have = self.extent_len(page)?;
        if pages_for(payload.len() as u64) <= have {
            self.write_extent(page, have, payload)?;
            Ok(page)
        } else {
            self.free_extent(page)?;
            self.store(payload)
        }
    }

    /// Reads and verifies the extent headed at `page` into `buf` (grown
    /// as needed, never shrunk, so a caller that reuses one buffer stops
    /// allocating), returning the payload as a slice of it.
    ///
    /// One read covers the start of the head page — header and payload
    /// together when they fit its first KiB, as a node of up to ~60 keys
    /// does; a second read fetches the rest of a larger payload. Bytes past the payload's end are never read. The
    /// page range, the header (magic, plausible lengths) and the payload
    /// checksum are all verified.
    pub fn load_into<'b>(&mut self, page: u64, buf: &'b mut Vec<u8>) -> Result<&'b [u8]> {
        if page == 0 || page >= self.pages {
            return Err(BlockFileError::new(format!(
                "{}: page {page} out of range (file has {} pages)",
                self.path.display(),
                self.pages
            )));
        }
        let first = FIRST_READ_BYTES as usize;
        if buf.len() < first {
            buf.resize(first, 0);
        }
        self.read_from(page, 0, &mut buf[..first])?;
        let (len, payload_len, sum) = self.check_header(page, &buf[..HEADER_BYTES as usize])?;
        let end = (HEADER_BYTES + payload_len) as usize;
        if end > first {
            if buf.len() < end {
                buf.resize(end, 0);
            }
            self.read_from(page, first as u64, &mut buf[first..end])?;
        }
        let payload = &buf[HEADER_BYTES as usize..end];
        let got = checksum(payload);
        if got != sum {
            return Err(BlockFileError::new(format!(
                "{}: page {page}: extent checksum mismatch \
                 (stored {sum:#010x}, computed {got:#010x}) — corrupted page",
                self.path.display()
            )));
        }
        self.stats.pages_read += len;
        Ok(payload)
    }

    /// Reads and verifies the extent headed at `page`, returning its
    /// payload ([`BlockFile::load_into`] into a buffer of its own).
    pub fn load(&mut self, page: u64) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        let n = self.load_into(page, &mut buf)?.len();
        buf.truncate(HEADER_BYTES as usize + n);
        buf.drain(..HEADER_BYTES as usize);
        Ok(buf)
    }

    /// Reads the extent headed at `page` ahead of demand — the page
    /// read an MLP scout schedules early so the walk that will need
    /// this node finds its bytes already faulted in. On this backend a
    /// prefetch *is* the read (there is no async I/O to overlap), so
    /// the payload is returned for the caller to stage; the only
    /// difference from [`BlockFile::load_into`] is the `prefetches`
    /// counter that lets measured runs attribute read traffic to scouts.
    pub fn prefetch<'b>(&mut self, page: u64, buf: &'b mut Vec<u8>) -> Result<&'b [u8]> {
        let payload = self.load_into(page, buf)?;
        self.stats.prefetches += 1;
        Ok(payload)
    }

    /// Returns the extent at `page` to the free list.
    pub fn free_extent(&mut self, page: u64) -> Result<()> {
        let len = self.extent_len(page)?;
        // Stamp the head so a reopen scan cannot mistake it for live.
        let mut head = [0u8; 16];
        head[0..4].copy_from_slice(&FREE_MAGIC.to_le_bytes());
        head[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        self.write_at(page, &head)?;
        self.stats.pages_written += 1;
        self.stats.frees += 1;
        self.release_run(FreeRun { page, len });
        Ok(())
    }

    /// Records `page` as the client directory extent in the superblock.
    pub fn set_root(&mut self, page: u64) -> Result<()> {
        self.write_super(Some(page))
    }

    /// The client directory extent recorded by [`BlockFile::set_root`].
    pub fn root(&mut self) -> Result<Option<u64>> {
        let mut sb = [0u8; 16];
        self.read_at(0, &mut sb)?;
        let has = sb[4] == 1;
        let page = u64::from_le_bytes(sb[8..16].try_into().unwrap());
        Ok(has.then_some(page))
    }

    fn write_super(&mut self, root: Option<u64>) -> Result<()> {
        let mut sb = [0u8; PAGE_BYTES as usize];
        sb[0..4].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        sb[4] = root.is_some() as u8;
        sb[8..16].copy_from_slice(&root.unwrap_or(0).to_le_bytes());
        self.write_at(0, &sb)?;
        self.stats.pages_written += 1;
        Ok(())
    }

    /// Checks whether `page` heads a checksum-valid live extent and
    /// returns its length (used only by the reopen scan, whose reads
    /// count in `pages_read` like any other load).
    fn probe_extent(&mut self, page: u64, buf: &mut Vec<u8>) -> Option<u64> {
        let before = self.stats.pages_read;
        self.load_into(page, buf).ok()?;
        Some(self.stats.pages_read - before)
    }

    fn read_header(&mut self, page: u64) -> Result<(u64, u64, u32)> {
        if page == 0 || page >= self.pages {
            return Err(BlockFileError::new(format!(
                "{}: page {page} out of range (file has {} pages)",
                self.path.display(),
                self.pages
            )));
        }
        let mut head = [0u8; HEADER_BYTES as usize];
        self.read_at(page, &mut head)?;
        self.check_header(page, &head)
    }

    /// Decodes and sanity-checks the extent header `head` read from
    /// `page`: live magic, and lengths that fit the extent and the file.
    fn check_header(&self, page: u64, head: &[u8]) -> Result<(u64, u64, u32)> {
        let word =
            |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
        let magic = word(0);
        if magic != LIVE_MAGIC {
            return Err(BlockFileError::new(format!(
                "{}: page {page}: bad extent magic {magic:#010x} \
                 (expected {LIVE_MAGIC:#010x}) — corrupted or freed page",
                self.path.display()
            )));
        }
        let len = word(4) as u64;
        let payload_len = word(8) as u64;
        let sum = word(12);
        if len == 0 || page + len > self.pages || HEADER_BYTES + payload_len > len * PAGE_BYTES {
            return Err(BlockFileError::new(format!(
                "{}: page {page}: implausible extent header \
                 (len {len} pages, payload {payload_len} bytes, file {} pages)",
                self.path.display(),
                self.pages
            )));
        }
        Ok((len, payload_len, sum))
    }

    fn extent_len(&mut self, page: u64) -> Result<u64> {
        Ok(self.read_header(page)?.0)
    }

    fn write_extent(&mut self, page: u64, len: u64, payload: &[u8]) -> Result<()> {
        let mut buf = vec![0u8; (len * PAGE_BYTES) as usize];
        buf[0..4].copy_from_slice(&LIVE_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&checksum(payload).to_le_bytes());
        buf[HEADER_BYTES as usize..HEADER_BYTES as usize + payload.len()].copy_from_slice(payload);
        self.write_at(page, &buf)?;
        self.stats.pages_written += len;
        Ok(())
    }

    /// First-fit allocation of `len` contiguous pages, extending the
    /// file when no free run is large enough.
    fn alloc_run(&mut self, len: u64) -> Result<u64> {
        for i in 0..self.free.len() {
            if self.free[i].len >= len {
                let page = self.free[i].page;
                if self.free[i].len == len {
                    self.free.remove(i);
                } else {
                    self.free[i].page += len;
                    self.free[i].len -= len;
                }
                return Ok(page);
            }
        }
        let page = self.pages;
        self.pages += len;
        self.file
            .set_len(self.pages * PAGE_BYTES)
            .map_err(|e| BlockFileError::io(format!("grow {}", self.path.display()), e))?;
        Ok(page)
    }

    /// Inserts a run into the sorted free list, coalescing neighbors.
    fn release_run(&mut self, run: FreeRun) {
        let i = self.free.partition_point(|r| r.page < run.page);
        self.free.insert(i, run);
        // Coalesce with the right neighbor, then the left.
        if i + 1 < self.free.len() && self.free[i].page + self.free[i].len == self.free[i + 1].page
        {
            self.free[i].len += self.free[i + 1].len;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].page + self.free[i - 1].len == self.free[i].page {
            self.free[i - 1].len += self.free[i].len;
            self.free.remove(i);
        }
    }

    fn read_at(&mut self, page: u64, buf: &mut [u8]) -> Result<()> {
        self.read_from(page, 0, buf)
    }

    /// Reads `buf.len()` bytes starting `skip` bytes into `page`.
    fn read_from(&mut self, page: u64, skip: u64, buf: &mut [u8]) -> Result<()> {
        self.file
            .read_exact_at(buf, page * PAGE_BYTES + skip)
            .map_err(|e| {
                BlockFileError::io(format!("read page {page} of {}", self.path.display()), e)
            })
    }

    fn write_at(&mut self, page: u64, buf: &[u8]) -> Result<()> {
        self.file.write_all_at(buf, page * PAGE_BYTES).map_err(|e| {
            BlockFileError::io(format!("write page {page} of {}", self.path.display()), e)
        })
    }
}

impl Drop for BlockFile {
    fn drop(&mut self) {
        if self.temp {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_across_sizes() {
        let mut bf = BlockFile::temp().unwrap();
        // Empty, sub-page, exactly page-filling, and multi-page payloads.
        let fill = PAGE_BYTES as usize - HEADER_BYTES as usize;
        let sizes = [
            0usize,
            1,
            17,
            64,
            fill - 1,
            fill,
            fill + 1,
            3 * fill,
            20_000,
        ];
        let mut extents = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..n).map(|j| (i * 31 + j) as u8).collect();
            extents.push((bf.store(&payload).unwrap(), payload));
        }
        for (page, payload) in &extents {
            assert_eq!(&bf.load(*page).unwrap(), payload);
        }
    }

    #[test]
    fn free_list_reuses_and_coalesces() {
        let mut bf = BlockFile::temp().unwrap();
        let big = vec![2u8; 2 * PAGE_BYTES as usize];
        let a = bf.store(&[1u8; 100]).unwrap(); // 1 page
        let b = bf.store(&big).unwrap(); // 3 pages
        let c = bf.store(&[3u8; 100]).unwrap(); // 1 page
        let grown = bf.page_count();
        bf.free_extent(a).unwrap();
        bf.free_extent(b).unwrap();
        assert_eq!(bf.free_pages(), 4, "adjacent frees coalesce into one run");
        // A 4-page payload fits exactly in the coalesced run: no growth.
        let wide = vec![4u8; 3 * PAGE_BYTES as usize];
        let d = bf.store(&wide).unwrap();
        assert_eq!(d, a, "first-fit reuses the coalesced run");
        assert_eq!(bf.page_count(), grown, "no file growth on reuse");
        assert_eq!(bf.load(c).unwrap(), vec![3u8; 100]);
        assert_eq!(bf.load(d).unwrap(), wide);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut bf = BlockFile::temp().unwrap();
        let a = bf.store(&[7u8; 64]).unwrap();
        let same = bf.update(a, &[8u8; 128]).unwrap();
        assert_eq!(same, a, "growing within the extent stays in place");
        assert_eq!(bf.load(a).unwrap(), vec![8u8; 128]);
        let moved = bf.update(a, &vec![9u8; 2 * PAGE_BYTES as usize]).unwrap();
        assert_ne!(moved, a, "overflowing the extent relocates");
        assert_eq!(bf.load(moved).unwrap(), vec![9u8; 2 * PAGE_BYTES as usize]);
        assert!(bf.load(a).is_err(), "old extent is freed");
    }

    #[test]
    fn reopen_restores_extents_and_free_list() {
        let dir = std::env::temp_dir().join(format!("metal-bf-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.blk");
        let (a, c, free_before);
        {
            let mut bf = BlockFile::create(&path).unwrap();
            a = bf.store(&[1u8; 300]).unwrap();
            let fat = vec![2u8; PAGE_BYTES as usize * 2];
            let b = bf.store(&fat).unwrap();
            c = bf.store(&[3u8; 50]).unwrap();
            bf.free_extent(b).unwrap();
            bf.set_root(c).unwrap();
            free_before = bf.free_pages();
        }
        let mut bf = BlockFile::open(&path).unwrap();
        assert_eq!(bf.load(a).unwrap(), vec![1u8; 300]);
        assert_eq!(bf.load(c).unwrap(), vec![3u8; 50]);
        assert_eq!(bf.root().unwrap(), Some(c));
        assert_eq!(bf.free_pages(), free_before, "scan rebuilds the free list");
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn corrupted_header_fails_with_context_not_panic() {
        let mut bf = BlockFile::temp().unwrap();
        let a = bf.store(&[5u8; 200]).unwrap();
        // Flip the magic in the head page.
        let mut head = [0u8; 16];
        bf.read_at(a, &mut head).unwrap();
        head[0] ^= 0xff;
        bf.write_at(a, &head).unwrap();
        let err = bf.load(a).expect_err("corrupt magic must be detected");
        assert!(err.to_string().contains("bad extent magic"), "{err}");
        assert!(err.to_string().contains(&format!("page {a}")), "{err}");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bf = BlockFile::temp().unwrap();
        let a = bf.store(&[6u8; 200]).unwrap();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        bf.read_at(a, &mut buf).unwrap();
        buf[HEADER_BYTES as usize + 10] ^= 0x01;
        bf.write_at(a, &buf).unwrap();
        let err = bf
            .load(a)
            .expect_err("flipped payload bit must be detected");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn out_of_range_and_free_pages_fail_loudly() {
        let mut bf = BlockFile::temp().unwrap();
        let a = bf.store(&[1u8; 8]).unwrap();
        assert!(bf.load(a + 100).is_err(), "out-of-range page");
        bf.free_extent(a).unwrap();
        let err = bf.load(a).expect_err("freed page is not loadable");
        assert!(err.to_string().contains("corrupted or freed"), "{err}");
    }

    #[test]
    fn load_into_reuses_one_buffer_and_fails_like_load() {
        let mut bf = BlockFile::temp().unwrap();
        let fill = PAGE_BYTES as usize - HEADER_BYTES as usize;
        let one_read = (FIRST_READ_BYTES - HEADER_BYTES) as usize;
        let sizes = [5usize, one_read, one_read + 1, fill, fill + 1, 3 * fill + 7];
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&n| (0..n).map(|j| (j * 7 + n) as u8).collect())
            .collect();
        let pages: Vec<u64> = payloads.iter().map(|p| bf.store(p).unwrap()).collect();
        // One buffer, small extents before large ones and the reverse.
        let mut buf = Vec::new();
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] {
            for i in order {
                let before = bf.stats().pages_read;
                assert_eq!(bf.load_into(pages[i], &mut buf).unwrap(), &payloads[i][..]);
                assert_eq!(
                    bf.stats().pages_read - before,
                    pages_for(payloads[i].len() as u64)
                );
                assert_eq!(bf.load(pages[i]).unwrap(), payloads[i]);
            }
        }
        let largest = HEADER_BYTES as usize + 3 * fill + 7;
        assert_eq!(buf.len(), largest, "grown to the largest, never shrunk");

        // Each failure reads the same through both entry points.
        let same = |bf: &mut BlockFile, page: u64, buf: &mut Vec<u8>, want: &str| {
            let a = bf.load_into(page, buf).expect_err("must fail").to_string();
            let b = bf.load(page).expect_err("must fail").to_string();
            assert_eq!(a, b);
            assert!(
                a.contains(want) && a.contains(&format!("page {page}")),
                "{a}"
            );
        };
        let past_end = bf.page_count() + 3;
        same(&mut bf, past_end, &mut buf, "out of range");
        same(&mut bf, 0, &mut buf, "out of range");
        let mut head = [0u8; PAGE_BYTES as usize];
        bf.read_at(pages[0], &mut head).unwrap();
        head[HEADER_BYTES as usize + 2] ^= 0x40;
        bf.write_at(pages[0], &head).unwrap();
        same(&mut bf, pages[0], &mut buf, "checksum mismatch");
        // Continuation pages are checksummed too.
        let tail = pages[5] + 2;
        bf.write_at(tail, &[0xa5; 32]).unwrap();
        same(&mut bf, pages[5], &mut buf, "checksum mismatch");
        bf.read_at(pages[1], &mut head).unwrap();
        head[0] ^= 0xff;
        bf.write_at(pages[1], &head).unwrap();
        same(&mut bf, pages[1], &mut buf, "bad extent magic");
        bf.read_at(pages[4], &mut head).unwrap();
        head[8..12].copy_from_slice(&(3 * PAGE_BYTES as u32).to_le_bytes());
        bf.write_at(pages[4], &head).unwrap();
        same(&mut bf, pages[4], &mut buf, "implausible extent header");
    }

    #[test]
    fn temp_file_is_unlinked_on_drop() {
        let path;
        {
            let bf = BlockFile::temp().unwrap();
            path = bf.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
