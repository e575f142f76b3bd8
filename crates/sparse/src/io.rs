//! MatrixMarket (`.mtx`) reader and writer.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which cover
//! every matrix in the paper's UFL test set. Pattern matrices get unit
//! values. Comments (`%`) and blank lines are skipped.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// Most entries the reader reserves room for before reading any: the
/// size line is untrusted input, so a huge declared count must not
/// reserve (and abort on) memory the file never fills. Larger matrices
/// grow their entry vectors as entries arrive.
const MAX_PREALLOCATED_ENTRIES: usize = 1 << 20;

/// Symmetry qualifier parsed from a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; mirror on read.
    Symmetric,
}

/// Parses a MatrixMarket stream into CSR.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix> {
    let mut lines = BufReader::new(reader).lines();
    let mut lineno = 0usize;

    // --- header ---
    let header = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    detail: "empty stream".into(),
                })
            }
        }
    };
    let header_lc = header.to_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 4 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("bad MatrixMarket banner: {header}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("unsupported format {} (only coordinate)", tokens[2]),
        });
    }
    let pattern = match tokens[3] {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unsupported field type {other}"),
            })
        }
    };
    let symmetry = match tokens.get(4).copied().unwrap_or("general") {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unsupported symmetry {other}"),
            })
        }
    };

    // --- size line ---
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    detail: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|_| SparseError::Parse {
                line: lineno,
                detail: format!("bad size token {t}"),
            })
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("size line needs 3 tokens, got {}", dims.len()),
        });
    }
    let (n_rows, n_cols, nnz_decl) = (dims[0], dims[1], dims[2]);
    if n_rows
        .checked_mul(n_cols)
        .is_some_and(|cells| nnz_decl > cells)
    {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("declares {nnz_decl} entries for a {n_rows} x {n_cols} matrix"),
        });
    }

    // --- entries ---
    let expected = match symmetry {
        MmSymmetry::Symmetric => nnz_decl.saturating_mul(2),
        MmSymmetry::General => nnz_decl,
    };
    let mut coo = CooMatrix::with_capacity(n_rows, n_cols, expected.min(MAX_PREALLOCATED_ENTRIES));
    let mut seen = 0usize;
    for l in lines {
        lineno += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad row index".into(),
                })?;
        let j: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad column index".into(),
                })?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad value".into(),
                })?
        };
        if !v.is_finite() {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("non-finite value {v}"),
            });
        }
        if i == 0 || j == 0 || i > n_rows || j > n_cols {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("coordinate ({i}, {j}) outside 1..={n_rows} x 1..={n_cols}"),
            });
        }
        match symmetry {
            MmSymmetry::General => coo.push(i - 1, j - 1, v),
            MmSymmetry::Symmetric => coo.push_sym(i - 1, j - 1, v),
        }
        seen += 1;
    }
    if seen != nnz_decl {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("declared {nnz_decl} entries, found {seen}"),
        });
    }
    Ok(coo.to_csr())
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Writes a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(mut w: W, a: &CsrMatrix) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by ftcg-sparse")?;
    writeln!(w, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for i in 0..a.n_rows() {
        for (j, v) in a.row(i) {
            writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(path: P, a: &CsrMatrix) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(std::io::BufWriter::new(f), a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
1 3 -1.0
";

    const SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
";

    const PATTERN: &str = "%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
";

    #[test]
    fn reads_general() {
        let a = read_matrix_market(GENERAL.as_bytes()).unwrap();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), -1.0);
    }

    #[test]
    fn reads_symmetric_mirrors() {
        let a = read_matrix_market(SYMMETRIC.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 0), 5.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn reads_pattern_as_ones() {
        let a = read_matrix_market(PATTERN.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_banner() {
        assert!(read_matrix_market("%%NotMM\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let e = read_matrix_market("%%MatrixMarket matrix array real general\n".as_bytes());
        assert!(e.is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(s.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_coordinate() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(s.as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["nan", "inf", "-inf"] {
            let s = format!(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {bad}\n"
            );
            match read_matrix_market(s.as_bytes()) {
                Err(SparseError::Parse { line: 4, .. }) => {}
                other => panic!("`{bad}`: expected a parse error at line 4, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_more_entries_than_cells() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 100000000000000\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(s.as_bytes()),
            Err(SparseError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn huge_declared_count_fails_on_the_count_not_the_allocation() {
        // Plausible for the dimensions, far beyond what the file holds
        // (and what memory holds): the reader must not reserve it.
        for sym in ["general", "symmetric"] {
            let s = format!(
                "%%MatrixMarket matrix coordinate real {sym}\n\
                 100000000 100000000 100000000000000\n1 1 1.0\n"
            );
            match read_matrix_market(s.as_bytes()) {
                Err(SparseError::Parse { detail, .. }) => {
                    assert!(detail.contains("found 1"), "{sym}: {detail}")
                }
                other => panic!("{sym}: expected a count mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(read_matrix_market("".as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let a = crate::gen::random_spd(30, 0.1, 99).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn file_roundtrip() {
        let a = crate::gen::poisson2d(4).unwrap();
        let dir = std::env::temp_dir().join("ftcg_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p2d.mtx");
        write_matrix_market_file(&path, &a).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a.to_dense(), b.to_dense());
        std::fs::remove_file(&path).ok();
    }
}
