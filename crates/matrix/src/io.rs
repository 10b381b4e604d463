//! Tab-delimited expression-matrix I/O.
//!
//! The on-disk format follows the convention of the yeast benchmark referenced
//! by the paper (Tavazoie et al., available from the Church lab): a header
//! line of condition labels, then one line per gene consisting of a gene label
//! followed by one expression value per condition, all tab-separated:
//!
//! ```text
//! GENE\tc1\tc2\tc3
//! g1\t10\t-14.5\t15
//! g2\t20\t15\t15
//! ```
//!
//! Missing values are common in microarray data; tokens that are empty, `NA`,
//! `NaN` or `?` (case-insensitive) parse to holes. [`read_matrix`] rejects
//! holes; [`read_ragged`] keeps them as `Option<f64>` so callers can impute
//! them with [`crate::missing`].
//!
//! Unquoted comma-separated files are accepted too: when the header line
//! contains commas and no tabs, `,` is used as the delimiter.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{ExpressionMatrix, MatrixError};

/// A parsed matrix that may contain missing values.
#[derive(Debug, Clone, PartialEq)]
pub struct RaggedMatrix {
    /// Gene labels, one per data row.
    pub genes: Vec<String>,
    /// Condition labels from the header.
    pub conditions: Vec<String>,
    /// Row-major cells; `None` marks a missing value.
    pub cells: Vec<Option<f64>>,
}

impl RaggedMatrix {
    /// Number of missing cells.
    pub fn n_missing(&self) -> usize {
        self.cells.iter().filter(|c| c.is_none()).count()
    }
}

fn is_missing_token(tok: &str) -> bool {
    tok.is_empty()
        || tok.eq_ignore_ascii_case("na")
        || tok.eq_ignore_ascii_case("nan")
        || tok == "?"
}

/// One pass over the text: the labels plus row-major values, with `NaN`
/// standing in for each hole listed in `missing`. Values are parsed
/// straight into `f64`s, so a complete matrix never holds a
/// `Vec<Option<f64>>` twice its final size.
struct Parsed {
    genes: Vec<String>,
    conditions: Vec<String>,
    values: Vec<f64>,
    missing: Vec<usize>,
}

/// Parses a tab-delimited matrix, keeping missing values as holes.
///
/// Blank lines and lines starting with `#` are skipped. The first cell of the
/// header (the corner above the gene-label column) is ignored.
///
/// # Errors
///
/// Returns an error on ragged rows, unparsable numeric tokens, duplicate
/// labels or an empty matrix.
pub fn read_ragged<R: Read>(reader: R) -> Result<RaggedMatrix, MatrixError> {
    let parsed = parse(reader)?;
    let mut cells: Vec<Option<f64>> = parsed.values.into_iter().map(Some).collect();
    for i in parsed.missing {
        cells[i] = None;
    }
    Ok(RaggedMatrix {
        genes: parsed.genes,
        conditions: parsed.conditions,
        cells,
    })
}

fn parse<R: Read>(reader: R) -> Result<Parsed, MatrixError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines();

    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if trimmed.trim().is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                break trimmed.to_string();
            }
            None => return Err(MatrixError::Empty),
        }
    };

    // Delimiter auto-detection: tab-separated is the native format; a
    // header with commas and no tabs is treated as (unquoted) CSV.
    let delimiter = if header.contains('\t') || !header.contains(',') {
        '\t'
    } else {
        ','
    };

    let mut header_cells = header.split(delimiter);
    let _corner = header_cells.next();
    let conditions: Vec<String> = header_cells.map(|s| s.trim().to_string()).collect();
    if conditions.is_empty() {
        return Err(MatrixError::Empty);
    }

    let mut genes = Vec::new();
    let mut values = Vec::new();
    let mut missing = Vec::new();
    let mut row = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.trim().is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split(delimiter);
        let gene = fields
            .next()
            .expect("split always yields at least one field")
            .trim()
            .to_string();
        let mut count = 0usize;
        for (col, tok) in fields.enumerate() {
            let tok = tok.trim();
            if col >= conditions.len() {
                return Err(MatrixError::RaggedRow {
                    row,
                    expected: conditions.len(),
                    found: col + 1,
                });
            }
            if is_missing_token(tok) {
                missing.push(values.len());
                values.push(f64::NAN);
            } else {
                let v: f64 = tok.parse().map_err(|_| MatrixError::BadValue {
                    row,
                    col,
                    token: tok.to_string(),
                })?;
                if !v.is_finite() {
                    return Err(MatrixError::NonFinite {
                        gene: row,
                        cond: col,
                    });
                }
                values.push(v);
            }
            count += 1;
        }
        if count != conditions.len() {
            return Err(MatrixError::RaggedRow {
                row,
                expected: conditions.len(),
                found: count,
            });
        }
        genes.push(gene);
        row += 1;
    }
    if genes.is_empty() {
        return Err(MatrixError::Empty);
    }
    // Validate label uniqueness by round-tripping through the constructor on
    // a dummy buffer only when complete; do it directly here instead.
    {
        let mut seen = std::collections::HashSet::new();
        for g in &genes {
            if !seen.insert(g.as_str()) {
                return Err(MatrixError::DuplicateLabel(g.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for c in &conditions {
            if !seen.insert(c.as_str()) {
                return Err(MatrixError::DuplicateLabel(c.clone()));
            }
        }
    }
    Ok(Parsed {
        genes,
        conditions,
        values,
        missing,
    })
}

/// Parses a tab-delimited matrix that must be complete (no missing values).
///
/// # Errors
///
/// As [`read_ragged`], plus an error if any cell is missing.
pub fn read_matrix<R: Read>(reader: R) -> Result<ExpressionMatrix, MatrixError> {
    let parsed = parse(reader)?;
    if let Some(&i) = parsed.missing.first() {
        let n = parsed.conditions.len();
        return Err(MatrixError::BadValue {
            row: i / n,
            col: i % n,
            token: "<missing>".into(),
        });
    }
    ExpressionMatrix::from_flat(parsed.genes, parsed.conditions, parsed.values)
}

/// Reads a matrix from a file path. See [`read_matrix`].
///
/// # Errors
///
/// As [`read_matrix`], plus file-open failures.
pub fn read_matrix_file(path: impl AsRef<Path>) -> Result<ExpressionMatrix, MatrixError> {
    let file = std::fs::File::open(path)?;
    read_matrix(file)
}

/// Reads a possibly-incomplete matrix from a file path. See [`read_ragged`].
///
/// # Errors
///
/// As [`read_ragged`], plus file-open failures.
pub fn read_ragged_file(path: impl AsRef<Path>) -> Result<RaggedMatrix, MatrixError> {
    let file = std::fs::File::open(path)?;
    read_ragged(file)
}

/// Writes a matrix in the tab-delimited format accepted by [`read_matrix`].
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_matrix<W: Write>(
    matrix: &ExpressionMatrix,
    writer: &mut W,
) -> Result<(), MatrixError> {
    write!(writer, "GENE")?;
    for c in matrix.condition_names() {
        write!(writer, "\t{c}")?;
    }
    writeln!(writer)?;
    for (g, row) in matrix.rows() {
        write!(writer, "{}", matrix.gene_name(g))?;
        for v in row {
            write!(writer, "\t{v}")?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Writes a matrix to a file path. See [`write_matrix`].
///
/// # Errors
///
/// As [`write_matrix`], plus file-create failures.
pub fn write_matrix_file(
    matrix: &ExpressionMatrix,
    path: impl AsRef<Path>,
) -> Result<(), MatrixError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_matrix(matrix, &mut file)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "GENE\tc1\tc2\tc3\ng1\t1.5\t-2\t3\ng2\t0\t0.25\t-0.5\n";

    #[test]
    fn parses_complete_matrix() {
        let m = read_matrix(SAMPLE.as_bytes()).unwrap();
        assert_eq!(m.n_genes(), 2);
        assert_eq!(m.n_conditions(), 3);
        assert_eq!(m.value(0, 1), -2.0);
        assert_eq!(m.gene_name(1), "g2");
        assert_eq!(m.condition_name(2), "c3");
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# a comment\n\nGENE\tc1\n# another\ng1\t4\n\n";
        let m = read_matrix(text.as_bytes()).unwrap();
        assert_eq!(m.n_genes(), 1);
        assert_eq!(m.value(0, 0), 4.0);
    }

    #[test]
    fn handles_crlf() {
        let text = "GENE\tc1\tc2\r\ng1\t1\t2\r\n";
        let m = read_matrix(text.as_bytes()).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn csv_delimiter_is_auto_detected() {
        let text = "GENE,c1,c2\ng1,1.5,-2\ng2,0,3\n";
        let m = read_matrix(text.as_bytes()).unwrap();
        assert_eq!(m.n_genes(), 2);
        assert_eq!(m.value(0, 1), -2.0);
        assert_eq!(m.condition_name(0), "c1");
        // A tab header with commas inside labels stays tab-delimited.
        let text = "GENE\ta,b\tc\ng1\t1\t2\n";
        let m = read_matrix(text.as_bytes()).unwrap();
        assert_eq!(m.condition_name(0), "a,b");
    }

    #[test]
    fn missing_markers_become_holes() {
        let text = "GENE\tc1\tc2\tc3\tc4\ng1\t1\tNA\t?\t\n";
        let r = read_ragged(text.as_bytes()).unwrap();
        assert_eq!(r.n_missing(), 3);
        assert_eq!(r.cells[0], Some(1.0));
        assert!(read_matrix(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "GENE\tc1\tc2\ng1\t1\n";
        assert!(matches!(
            read_matrix(text.as_bytes()),
            Err(MatrixError::RaggedRow {
                row: 0,
                expected: 2,
                found: 1
            })
        ));
        let text = "GENE\tc1\ng1\t1\t2\n";
        assert!(matches!(
            read_matrix(text.as_bytes()),
            Err(MatrixError::RaggedRow { .. })
        ));
    }

    #[test]
    fn rejects_bad_tokens() {
        let text = "GENE\tc1\ng1\tabc\n";
        assert!(matches!(
            read_matrix(text.as_bytes()),
            Err(MatrixError::BadValue { row: 0, col: 0, .. })
        ));
    }

    #[test]
    fn rejects_duplicate_gene_labels() {
        let text = "GENE\tc1\ng1\t1\ng1\t2\n";
        assert!(matches!(
            read_matrix(text.as_bytes()),
            Err(MatrixError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            read_matrix("".as_bytes()),
            Err(MatrixError::Empty)
        ));
        assert!(matches!(
            read_matrix("GENE\tc1\n".as_bytes()),
            Err(MatrixError::Empty)
        ));
    }

    #[test]
    fn write_read_roundtrip() {
        let m = read_matrix(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        let back = read_matrix(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("regcluster-matrix-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.tsv");
        let m = read_matrix(SAMPLE.as_bytes()).unwrap();
        write_matrix_file(&m, &path).unwrap();
        let back = read_matrix_file(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }
}
