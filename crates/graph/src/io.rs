//! Edge-list I/O: a human-readable text format and a compact binary format.
//!
//! Text format: one `src dst [weight]` triple per line; blank lines and lines
//! starting with `#` or `%` are ignored (SNAP/DIMACS-style). Binary format:
//! a magic header, vertex/edge counts, then `(u32 src, u32 dst, u32 weight)`
//! triples in little-endian order.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::edgelist::EdgeList;
use crate::types::{Edge, VId};

const MAGIC: &[u8; 8] = b"PLYMRGR1";

/// Parse the text edge-list format from a reader.
pub fn read_text(r: impl Read) -> io::Result<EdgeList> {
    let mut edges = Vec::new();
    let mut max_v: u64 = 0;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let bad = |m: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {m}: {t:?}", lineno + 1),
            )
        };
        let src: VId = it
            .next()
            .ok_or_else(|| bad("missing source"))?
            .parse()
            .map_err(|_| bad("bad source"))?;
        let dst: VId = it
            .next()
            .ok_or_else(|| bad("missing target"))?
            .parse()
            .map_err(|_| bad("bad target"))?;
        let weight = match it.next() {
            Some(w) => w.parse().map_err(|_| bad("bad weight"))?,
            None => 1,
        };
        max_v = max_v.max(src as u64).max(dst as u64);
        edges.push(Edge { src, dst, weight });
    }
    let num_vertices = if edges.is_empty() {
        0
    } else {
        max_v as usize + 1
    };
    Ok(EdgeList {
        num_vertices,
        edges,
    })
}

/// Write the text format.
pub fn write_text(el: &EdgeList, w: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "# polymer edge list: {} vertices, {} edges",
        el.num_vertices,
        el.num_edges()
    )?;
    for e in &el.edges {
        writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
    }
    w.flush()
}

/// Preallocation ceiling for binary edge reads: a forged header claiming
/// trillions of edges must not turn into a giant `Vec::with_capacity` before
/// the stream proves it actually holds that many records.
const PREALLOC_EDGE_CAP: usize = 1 << 20;

/// Read the binary format.
///
/// Header counts are validated before anything is allocated: the vertex
/// count must fit the 32-bit id space, and the edge count only seeds a
/// capped preallocation — a header claiming more edges than the stream holds
/// ends in `UnexpectedEof` after reading what is there, never in an
/// out-of-memory abort. Use [`read_binary_sized`] when the source's byte
/// length is known to reject inconsistent headers up front.
pub fn read_binary(r: impl Read) -> io::Result<EdgeList> {
    read_binary_impl(r, None)
}

/// Like [`read_binary`] for sources of known byte length (a file, a slice):
/// a header whose edge count is inconsistent with `byte_len` is rejected
/// before any edge data is read.
pub fn read_binary_sized(r: impl Read, byte_len: u64) -> io::Result<EdgeList> {
    read_binary_impl(r, Some(byte_len))
}

fn read_binary_impl(mut r: impl Read, byte_len: Option<u64>) -> io::Result<EdgeList> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a polymer binary edge list (bad magic)",
        ));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8);
    if n > u32::MAX as u64 + 1 {
        return Err(bad(format!("vertex count {n} exceeds the 32-bit id space")));
    }
    if let Some(len) = byte_len {
        // Header (8 magic + 8 n + 8 m) plus 12 bytes per edge.
        let expected = m.checked_mul(12).and_then(|b| b.checked_add(24));
        if expected != Some(len) {
            return Err(bad(format!(
                "edge count {m} inconsistent with byte length {len}"
            )));
        }
    }
    let n = n as usize;
    let mut edges = Vec::with_capacity((m as usize).min(PREALLOC_EDGE_CAP));
    let mut rec = [0u8; 12];
    for _ in 0..m {
        r.read_exact(&mut rec)?;
        let src = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let dst = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let weight = u32::from_le_bytes(rec[8..12].try_into().unwrap());
        if src as usize >= n || dst as usize >= n {
            return Err(bad(format!(
                "edge ({src}, {dst}) out of range for {n} vertices"
            )));
        }
        edges.push(Edge { src, dst, weight });
    }
    Ok(EdgeList {
        num_vertices: n,
        edges,
    })
}

/// Write the binary format.
pub fn write_binary(el: &EdgeList, w: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(el.num_vertices as u64).to_le_bytes())?;
    w.write_all(&(el.num_edges() as u64).to_le_bytes())?;
    for e in &el.edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
        w.write_all(&e.weight.to_le_bytes())?;
    }
    w.flush()
}

/// Load an edge list from a path, choosing the format by extension
/// (`.bin` → binary, anything else → text).
pub fn load(path: impl AsRef<Path>) -> io::Result<EdgeList> {
    let path = path.as_ref();
    let f = File::open(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        // The file length is known, so an inconsistent header is rejected
        // before any edge data is read.
        let len = f.metadata()?.len();
        read_binary_sized(f, len)
    } else {
        read_text(f)
    }
}

/// Save an edge list to a path, choosing the format by extension.
pub fn save(el: &EdgeList, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    let f = File::create(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        write_binary(el, f)
    } else {
        write_text(el, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList {
            num_vertices: 5,
            edges: vec![
                Edge::weighted(0, 1, 10),
                Edge::weighted(1, 2, 20),
                Edge::weighted(4, 0, 1),
            ],
        }
    }

    #[test]
    fn text_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_text(&el, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn text_parses_comments_defaults_and_errors() {
        let ok = read_text("# comment\n% other\n\n0 1\n2 3 7\n".as_bytes()).unwrap();
        assert_eq!(ok.num_vertices, 4);
        assert_eq!(ok.edges[0].weight, 1);
        assert_eq!(ok.edges[1].weight, 7);

        let err = read_text("0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_text("a b\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad source"));
        let err = read_text("0 1 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad weight"));
    }

    #[test]
    fn binary_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn binary_rejects_garbage() {
        let err = read_binary(&b"NOTMAGIC"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        // Truncated file.
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_edges() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn forged_huge_edge_count_does_not_preallocate() {
        // Header claims ~10^12 edges with no data behind it: the reader must
        // fail with a clean EOF (after its capped preallocation), not abort
        // trying to reserve terabytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // With a known byte length the inconsistency is caught up front.
        let err = read_binary_sized(&buf[..], buf.len() as u64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("inconsistent"));
    }

    #[test]
    fn vertex_count_beyond_u32_id_space_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(1u64 << 33).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("32-bit"));
    }

    #[test]
    fn sized_read_accepts_exact_and_rejects_mismatched_lengths() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        let back = read_binary_sized(&buf[..], buf.len() as u64).unwrap();
        assert_eq!(back, el);
        let err = read_binary_sized(&buf[..], buf.len() as u64 - 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_truncated_binary_file() {
        let dir = std::env::temp_dir();
        let p = dir.join("polymer_io_truncated.bin");
        save(&sample(), &p).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 5]).unwrap();
        let err = load(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn file_round_trip_both_formats() {
        let dir = std::env::temp_dir();
        let el = sample();
        for name in ["polymer_io_test.txt", "polymer_io_test.bin"] {
            let p = dir.join(name);
            save(&el, &p).unwrap();
            let back = load(&p).unwrap();
            assert_eq!(back, el);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn empty_text_gives_empty_list() {
        let el = read_text("# nothing\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices, 0);
        assert_eq!(el.num_edges(), 0);
    }
}
