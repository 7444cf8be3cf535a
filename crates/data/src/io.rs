//! Dataset I/O: load and save trajectories in two interchange formats so
//! real Geolife/Porto exports can replace the synthetic generators.
//!
//! - **CSV** — one point per line, `traj_id,lon,lat`, points in sequence
//!   order per id (the common export shape of the Porto Kaggle dump and
//!   Geolife PLT conversions).
//! - **JSON Lines** — one trajectory per line as a JSON array of
//!   `[lon, lat]` pairs.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use tmn_traj::{Point, Trajectory};

/// Errors from reading trajectory files.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse { line: usize, what: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, what } => write!(f, "parse error on line {line}: {what}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Read `traj_id,lon,lat` CSV from any reader. Lines starting with `#` and a
/// header line starting with a non-numeric id are skipped. Consecutive rows
/// sharing an id form one trajectory; ids need not be sorted globally, but a
/// trajectory's rows must be contiguous. A non-finite coordinate (`nan`,
/// `inf`, or a literal too large for `f64`) is a parse error: no distance
/// or ranking downstream is defined on it.
pub fn read_csv(reader: impl BufRead) -> Result<Vec<Trajectory>, IoError> {
    let mut out: Vec<Trajectory> = Vec::new();
    let mut current_id: Option<String> = None;
    let mut current: Vec<Point> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',');
        let (id, lon_s, lat_s) = (
            parts.next().unwrap_or_default().trim(),
            parts.next().unwrap_or_default().trim(),
            parts.next().unwrap_or_default().trim(),
        );
        let (lon, lat) = match (lon_s.parse::<f64>(), lat_s.parse::<f64>()) {
            (Ok(lon), Ok(lat)) => (lon, lat),
            _ if lineno == 0 => continue, // header row
            _ => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    what: format!("expected traj_id,lon,lat got {trimmed:?}"),
                })
            }
        };
        if !(lon.is_finite() && lat.is_finite()) {
            return Err(IoError::Parse {
                line: lineno + 1,
                what: format!("non-finite coordinate in {trimmed:?}"),
            });
        }
        if current_id.as_deref() != Some(id) {
            if !current.is_empty() {
                out.push(Trajectory::new(std::mem::take(&mut current)));
            }
            current_id = Some(id.to_string());
        }
        current.push(Point::new(lon, lat));
    }
    if !current.is_empty() {
        out.push(Trajectory::new(current));
    }
    Ok(out)
}

/// Write trajectories as `traj_id,lon,lat` CSV.
pub fn write_csv(writer: impl Write, trajs: &[Trajectory]) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "traj_id,lon,lat")?;
    for (id, t) in trajs.iter().enumerate() {
        for p in t.points() {
            writeln!(w, "{id},{},{}", p.lon, p.lat)?;
        }
    }
    w.flush()
}

/// Read JSON Lines: each line a JSON array of `[lon, lat]` pairs. As in
/// [`read_csv`], a non-finite coordinate (an overflowing literal such as
/// `1e999`) is a parse error.
pub fn read_jsonl(reader: impl BufRead) -> Result<Vec<Trajectory>, IoError> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let parse_err = |what: String| IoError::Parse { line: lineno + 1, what };
        let coords: Vec<(f64, f64)> =
            serde_json::from_str::<Vec<[f64; 2]>>(&line)
                .map_err(|e| parse_err(e.to_string()))?
                .into_iter()
                .map(|[lon, lat]| (lon, lat))
                .collect();
        let bad = coords.iter().position(|(lon, lat)| !(lon.is_finite() && lat.is_finite()));
        if let Some(i) = bad {
            return Err(parse_err(format!("non-finite coordinate at point {i}")));
        }
        out.push(Trajectory::from_coords(&coords));
    }
    Ok(out)
}

/// Write JSON Lines (one trajectory per line).
pub fn write_jsonl(writer: impl Write, trajs: &[Trajectory]) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for t in trajs {
        let coords: Vec<[f64; 2]> = t.points().iter().map(|p| [p.lon, p.lat]).collect();
        writeln!(w, "{}", serde_json::to_string(&coords).expect("points serialize"))?;
    }
    w.flush()
}

/// Load trajectories from a path, dispatching on extension
/// (`.csv` / `.jsonl` / `.ndjson`).
pub fn load_path(path: impl AsRef<Path>) -> Result<Vec<Trajectory>, IoError> {
    let path = path.as_ref();
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    match path.extension().and_then(|e| e.to_str()) {
        Some("csv") => read_csv(file),
        Some("jsonl") | Some("ndjson") => read_jsonl(file),
        other => Err(IoError::Parse {
            line: 0,
            what: format!("unsupported extension {other:?} (use .csv or .jsonl)"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Vec<Trajectory> {
        vec![
            Trajectory::from_coords(&[(1.0, 2.0), (3.0, 4.0)]),
            Trajectory::from_coords(&[(5.0, 6.0), (7.0, 8.0), (9.0, 10.0)]),
        ]
    }

    #[test]
    fn csv_roundtrip() {
        let trajs = sample();
        let mut buf = Vec::new();
        write_csv(&mut buf, &trajs).unwrap();
        let back = read_csv(Cursor::new(buf)).unwrap();
        assert_eq!(back, trajs);
    }

    #[test]
    fn jsonl_roundtrip() {
        let trajs = sample();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trajs).unwrap();
        let back = read_jsonl(Cursor::new(buf)).unwrap();
        assert_eq!(back, trajs);
    }

    #[test]
    fn csv_skips_header_and_comments() {
        let data = "traj_id,lon,lat\n# comment\n0,1.5,2.5\n0,3.5,4.5\n1,0.0,0.0\n";
        let trajs = read_csv(Cursor::new(data)).unwrap();
        assert_eq!(trajs.len(), 2);
        assert_eq!(trajs[0].len(), 2);
        assert_eq!(trajs[1].len(), 1);
    }

    #[test]
    fn csv_bad_row_reports_line() {
        for bad in ["not,a-number", "nan,2.0", "1.0,inf", "-infinity,2.0", "1e999,2.0"] {
            let data = format!("0,1.0,2.0\n0,{bad}\n");
            match read_csv(Cursor::new(data)) {
                Err(IoError::Parse { line, .. }) => assert_eq!(line, 2, "{bad}"),
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_bad_line_reports_line() {
        for bad in ["not json", "[[1e999,2.0]]", "[[1.0,2.0],[1.0,-1e999]]"] {
            let data = format!("[[1.0,2.0]]\n{bad}\n");
            match read_jsonl(Cursor::new(data)) {
                Err(IoError::Parse { line, .. }) => assert_eq!(line, 2, "{bad}"),
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_path_rejects_unknown_extension() {
        let err = load_path("/tmp/definitely-missing.xyz");
        assert!(err.is_err());
    }
}
