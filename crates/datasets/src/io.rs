//! CSV input/output for datasets and clustering results.
//!
//! The format is deliberately plain so results can be plotted with any
//! tool: one point per row, coordinates first, then (optionally) a label
//! column where `-1` encodes noise.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use dbsvec_geometry::PointSet;

/// Writes `points` (and optional labels) as CSV.
///
/// Header: `x0,x1,...,x{d-1}[,label]`.
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
///
/// # Panics
///
/// Panics if `labels` is `Some` but misaligned with `points`.
pub fn write_csv(path: &Path, points: &PointSet, labels: Option<&[Option<u32>]>) -> io::Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), points.len(), "one label per point");
    }
    let mut out = BufWriter::new(File::create(path)?);
    for d in 0..points.dims() {
        if d > 0 {
            write!(out, ",")?;
        }
        write!(out, "x{d}")?;
    }
    if labels.is_some() {
        write!(out, ",label")?;
    }
    writeln!(out)?;

    for (i, p) in points.iter() {
        for (d, x) in p.iter().enumerate() {
            if d > 0 {
                write!(out, ",")?;
            }
            write!(out, "{x}")?;
        }
        if let Some(l) = labels {
            match l[i as usize] {
                Some(c) => write!(out, ",{c}")?,
                None => write!(out, ",-1")?,
            }
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Reads a CSV produced by [`write_csv`] (or any headerful numeric CSV).
///
/// If the header's last column is named `label`, it is parsed into labels
/// (`-1` → noise); otherwise every column is a coordinate.
///
/// # Errors
///
/// Returns `InvalidData` on malformed rows, non-finite coordinates
/// (`NaN`, `inf`), or an empty file.
pub fn read_csv(path: &Path) -> io::Result<(PointSet, Option<Vec<Option<u32>>>)> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))??;
    let columns: Vec<&str> = header.split(',').collect();
    let has_labels = columns.last().is_some_and(|c| c.trim() == "label");
    let dims = if has_labels {
        columns.len() - 1
    } else {
        columns.len()
    };
    if dims == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no coordinate columns",
        ));
    }

    let mut points = PointSet::new(dims);
    let mut labels: Vec<Option<u32>> = Vec::new();
    let mut row = vec![0.0; dims];
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        for (d, slot) in row.iter_mut().enumerate() {
            let field = fields.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: missing column {d}", lineno + 2),
                )
            })?;
            let value: f64 = field.trim().parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number {field:?}: {e}", lineno + 2),
                )
            })?;
            if !value.is_finite() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "line {}, column {d}: non-finite coordinate {field:?}",
                        lineno + 2
                    ),
                ));
            }
            *slot = value;
        }
        points.push(&row);
        if has_labels {
            let field = fields.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: missing label", lineno + 2),
                )
            })?;
            let value: i64 = field.trim().parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad label {field:?}: {e}", lineno + 2),
                )
            })?;
            labels.push(if value < 0 { None } else { Some(value as u32) });
        }
    }
    Ok((points, has_labels.then_some(labels)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbsvec-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_with_labels() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.5, -4.25]]);
        let labels = vec![Some(0), None];
        let path = tempfile("labeled.csv");
        write_csv(&path, &ps, Some(&labels)).unwrap();
        let (read_points, read_labels) = read_csv(&path).unwrap();
        assert_eq!(read_points, ps);
        assert_eq!(read_labels, Some(labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_without_labels() {
        let ps = PointSet::from_rows(&[vec![0.125], vec![1e5]]);
        let path = tempfile("plain.csv");
        write_csv(&path, &ps, None).unwrap();
        let (read_points, read_labels) = read_csv(&path).unwrap();
        assert_eq!(read_points, ps);
        assert_eq!(read_labels, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_number_is_invalid_data() {
        let path = tempfile("bad.csv");
        std::fs::write(&path, "x0,x1\n1.0,oops\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_coordinates_are_invalid_data() {
        for (name, row, column) in [("nan", "NaN,2.0", 0), ("inf", "1.0,-inf", 1)] {
            let path = tempfile(&format!("{name}.csv"));
            std::fs::write(&path, format!("x0,x1\n0.5,0.5\n{row}\n")).unwrap();
            let err = read_csv(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("line 3, column {column}")), "{msg}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn empty_file_is_invalid_data() {
        let path = tempfile("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let path = tempfile("blank.csv");
        std::fs::write(&path, "x0,label\n1.0,0\n\n2.0,-1\n").unwrap();
        let (points, labels) = read_csv(&path).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(labels.unwrap(), vec![Some(0), None]);
        std::fs::remove_file(&path).ok();
    }
}
