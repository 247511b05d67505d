//! CSV import/export for trajectories.
//!
//! Real deployments receive truck GPS feeds as delimited text; this module
//! reads and writes the minimal interchange format
//! `truck_id,timestamp_s,lat,lng` (header required, one point per line,
//! points of one trajectory grouped and chronological). A blank line ends
//! a trajectory, so one truck's consecutive days stay apart.

use crate::point::{GpsPoint, Trajectory};
use std::fmt;
use std::io::{BufRead, Write};

/// Errors produced while parsing trajectory CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and description).
    Parse(usize, String),
    /// A structural error only detectable once the input ends (e.g. the
    /// final trajectory flush), where no line number exists to point at.
    EndOfInput(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse(line, m) => write!(f, "line {line}: {m}"),
            CsvError::EndOfInput(m) => write!(f, "end of input: {m}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The expected header line.
pub const HEADER: &str = "truck_id,timestamp_s,lat,lng";

/// Writes trajectories as CSV, one `(truck_id, trajectory)` pair after
/// another, with a blank line between two trajectories: the boundary
/// [`CsvReader`] keys on, which keeps several days of one truck apart.
///
/// # Errors
/// Any I/O error `w` reports.
pub fn write_trajectories<W: Write>(
    items: &[(u32, &Trajectory)],
    w: &mut W,
) -> std::io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for (i, (truck_id, tr)) in items.iter().enumerate() {
        if i > 0 {
            writeln!(w)?;
        }
        for p in tr.points() {
            writeln!(w, "{truck_id},{},{:.7},{:.7}", p.t, p.lat, p.lng)?;
        }
    }
    Ok(())
}

/// Streaming CSV reader: an iterator yielding one `(truck_id, Trajectory)`
/// at a time, so arbitrarily large feeds can be consumed without
/// materializing the whole dataset.
///
/// Consecutive rows with the same `truck_id` form one trajectory; a blank
/// line or a change of id yields the previous one. Within one trajectory
/// timestamps must be strictly increasing; rows are otherwise free-form CSV without quoting
/// (coordinates and ids contain no commas). After yielding an error the
/// iterator is fused: further calls return `None`.
pub struct CsvReader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    pending: Option<(u32, Vec<GpsPoint>)>,
    done: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Opens a reader, consuming and validating the header line.
    ///
    /// # Errors
    ///
    /// [`CsvError::Parse`] on empty input or a wrong header line,
    /// [`CsvError::Io`] when the header cannot be read.
    pub fn new(r: R) -> Result<Self, CsvError> {
        let mut lines = r.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| CsvError::Parse(1, "empty input".into()))?;
        let header = header?;
        if header.trim() != HEADER {
            return Err(CsvError::Parse(1, format!("expected header `{HEADER}`")));
        }
        Ok(Self {
            lines,
            pending: None,
            done: false,
        })
    }

    /// Parses one body row into its truck id and point.
    fn parse_row(line: &str, lineno: usize) -> Result<(u32, GpsPoint), CsvError> {
        let mut parts = line.split(',');
        let id: u32 = parse_field(&mut parts, lineno, "truck_id")?;
        let t: i64 = parse_field(&mut parts, lineno, "timestamp_s")?;
        let lat: f64 = parse_field(&mut parts, lineno, "lat")?;
        let lng: f64 = parse_field(&mut parts, lineno, "lng")?;
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lng) {
            return Err(CsvError::Parse(
                lineno,
                format!("coordinates out of range: {lat},{lng}"),
            ));
        }
        Ok((id, GpsPoint::new(lat, lng, t)))
    }

    /// Emits a completed trajectory, or the structural error for an empty
    /// one. `lineno` is the row that triggered the flush; `None` at
    /// end-of-input, where no line exists to blame.
    fn flush(
        id: u32,
        points: Vec<GpsPoint>,
        lineno: Option<usize>,
    ) -> Result<(u32, Trajectory), CsvError> {
        if points.is_empty() {
            let msg = format!("truck {id} has no points");
            return Err(match lineno {
                Some(line) => CsvError::Parse(line, msg),
                None => CsvError::EndOfInput(msg),
            });
        }
        Ok((id, Trajectory::new(points)))
    }
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<(u32, Trajectory), CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some((idx, line)) = self.lines.next() else {
                // The final flush happens after the last line was consumed;
                // there is no "current line" to blame, so the error (if
                // any) names end-of-input instead of a fabricated number.
                self.done = true;
                let (id, points) = self.pending.take()?;
                return Some(Self::flush(id, points, None));
            };
            let lineno = idx + 1;
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                // A blank line ends the current trajectory, if any.
                match self.pending.take() {
                    Some((id, points)) => return Some(Self::flush(id, points, Some(lineno))),
                    None => continue,
                }
            }
            let (id, point) = match Self::parse_row(trimmed, lineno) {
                Ok(v) => v,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match &mut self.pending {
                Some((cur, points)) if *cur == id => {
                    if let Some(last) = points.last() {
                        if last.t >= point.t {
                            self.done = true;
                            return Some(Err(CsvError::Parse(
                                lineno,
                                format!("non-increasing timestamp {} after {}", point.t, last.t),
                            )));
                        }
                    }
                    points.push(point);
                }
                Some(_) => {
                    if let Some((prev_id, prev_points)) = self.pending.replace((id, vec![point])) {
                        let flushed = Self::flush(prev_id, prev_points, Some(lineno));
                        if flushed.is_err() {
                            self.done = true;
                        }
                        return Some(flushed);
                    }
                }
                None => self.pending = Some((id, vec![point])),
            }
        }
    }
}

/// Reads trajectories written by [`write_trajectories`] (or any conforming
/// producer), collecting the streaming [`CsvReader`] into a `Vec`.
///
/// # Errors
/// The first [`CsvError`] of the stream: an I/O failure, a malformed line,
/// or a structural error found at the end of the input.
pub fn read_trajectories<R: BufRead>(r: &mut R) -> Result<Vec<(u32, Trajectory)>, CsvError> {
    CsvReader::new(r)?.collect()
}

fn parse_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, CsvError>
where
    T::Err: fmt::Display,
{
    let tok = parts
        .next()
        .ok_or_else(|| CsvError::Parse(lineno, format!("missing field `{what}`")))?;
    tok.trim()
        .parse()
        .map_err(|e| CsvError::Parse(lineno, format!("bad {what} `{tok}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(points: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::new(
            points
                .iter()
                .map(|&(lat, lng, t)| GpsPoint::new(lat, lng, t))
                .collect(),
        )
    }

    #[test]
    fn roundtrip_two_trucks() {
        let a = tr(&[(32.0, 120.9, 0), (32.01, 120.91, 120)]);
        let b = tr(&[
            (31.9, 120.8, 60),
            (31.91, 120.81, 180),
            (31.92, 120.82, 300),
        ]);
        let mut buf = Vec::new();
        write_trajectories(&[(7, &a), (9, &b)], &mut buf).unwrap();
        let got = read_trajectories(&mut buf.as_slice()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 7);
        assert_eq!(got[0].1.len(), 2);
        assert_eq!(got[1].0, 9);
        assert_eq!(got[1].1.points()[2].t, 300);
        // Coordinates survive at 1e-7 degrees (~1 cm).
        assert!((got[0].1.points()[0].lat - 32.0).abs() < 1e-7);
    }

    #[test]
    fn alternating_ids_split_trajectories() {
        let csv = format!("{HEADER}\n1,0,32.0,120.9\n2,0,32.0,120.9\n1,120,32.0,120.9\n");
        let got = read_trajectories(&mut csv.as_bytes()).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn blank_lines_split_one_trucks_days() {
        // Two days of truck 3, each starting its clock at midnight: the
        // blank line the writer puts between them keeps them apart.
        let day1 = tr(&[(32.0, 120.9, 3600), (32.01, 120.91, 47_768)]);
        let day2 = tr(&[(32.0, 120.9, 24_020), (32.02, 120.92, 30_000)]);
        let mut buf = Vec::new();
        write_trajectories(&[(3, &day1), (3, &day2)], &mut buf).unwrap();
        let got = read_trajectories(&mut buf.as_slice()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0, got[0].1.len()), (3, 2));
        assert_eq!(got[1].1.points()[0].t, 24_020);
        // Without the boundary the second day reads as a clock jump.
        let text = String::from_utf8(buf).unwrap().replace("\n\n", "\n");
        let err = read_trajectories(&mut text.as_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("non-increasing timestamp 24020 after 47768"),
            "{err}"
        );
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_trajectories(&mut "a,b,c\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(1, _)), "{err}");
    }

    #[test]
    fn non_increasing_timestamps_rejected() {
        let csv = format!("{HEADER}\n1,100,32.0,120.9\n1,100,32.0,120.9\n");
        let err = read_trajectories(&mut csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-increasing"), "{err}");
    }

    #[test]
    fn out_of_range_coordinates_rejected() {
        let csv = format!("{HEADER}\n1,0,95.0,120.9\n");
        assert!(read_trajectories(&mut csv.as_bytes()).is_err());
    }

    #[test]
    fn missing_field_rejected() {
        let csv = format!("{HEADER}\n1,0,32.0\n");
        let err = read_trajectories(&mut csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn empty_body_is_ok() {
        let csv = format!("{HEADER}\n");
        assert!(read_trajectories(&mut csv.as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn iterator_yields_trajectories_incrementally() {
        let csv = format!("{HEADER}\n1,0,32.0,120.9\n1,60,32.0,120.9\n2,0,31.0,120.0\n");
        let mut it = CsvReader::new(csv.as_bytes()).unwrap();
        let (id, t) = it.next().unwrap().unwrap();
        assert_eq!((id, t.len()), (1, 2));
        let (id, t) = it.next().unwrap().unwrap();
        assert_eq!((id, t.len()), (2, 1));
        assert!(it.next().is_none());
    }

    #[test]
    fn iterator_is_fused_after_an_error() {
        let csv = format!("{HEADER}\n1,100,32.0,120.9\n1,50,32.0,120.9\n1,200,32.0,120.9\n");
        let mut it = CsvReader::new(csv.as_bytes()).unwrap();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }

    #[test]
    fn iterator_reports_body_line_numbers() {
        // The bad row is physical line 3 (header is line 1).
        let csv = format!("{HEADER}\n1,0,32.0,120.9\n1,60,oops,120.9\n");
        let mut it = CsvReader::new(csv.as_bytes()).unwrap();
        match it.next().unwrap() {
            Err(CsvError::Parse(3, msg)) => assert!(msg.contains("bad lat"), "{msg}"),
            other => panic!("expected Parse(3, ..), got {other:?}"),
        }
    }

    #[test]
    fn iterator_matches_collecting_wrapper() {
        let csv = format!(
            "{HEADER}\n5,0,32.0,120.9\n5,60,32.1,120.8\n6,10,31.0,120.0\n6,70,31.1,120.1\n"
        );
        let streamed: Vec<_> = CsvReader::new(csv.as_bytes())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let collected = read_trajectories(&mut csv.as_bytes()).unwrap();
        assert_eq!(streamed, collected);
    }
}
