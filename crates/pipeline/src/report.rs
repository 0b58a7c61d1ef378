//! Plain-text table formatting for the benchmark binaries.

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// One direction of a session's wire traffic: real framed byte and
/// message counts from a transport, the wall-clock the transfer
/// actually took (zero when it was not measured separately), and what
/// a link model predicts for the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRow {
    /// Direction label (`client -> server`, `server -> client`).
    pub direction: String,
    /// Framed wire bytes (headers + payloads).
    pub bytes: u64,
    /// Protocol messages (one framed message per wire frame).
    pub messages: u64,
    /// Measured transfer wall-clock in seconds (0 if unmeasured).
    pub measured_s: f64,
    /// Time the sender spent blocked in `send` on backpressure, in
    /// seconds (0 for the receiving direction or an unbounded pipe).
    pub send_blocked_s: f64,
    /// Link-model-predicted transfer time for the same byte count.
    pub modeled_s: f64,
}

/// Renders measured-vs-modeled transfer accounting for a session: the
/// real frames a transport moved against what a bandwidth/latency link
/// model predicts for those bytes. The caller computes `modeled_s` so
/// this crate stays renderer-only.
pub fn transfer_table(title: impl Into<String>, rows: &[TransferRow]) -> String {
    let mut t = Table::new(
        title,
        &[
            "direction",
            "bytes",
            "frames",
            "measured",
            "send blocked",
            "modeled",
        ],
    );
    let opt = |v: f64| if v > 0.0 { secs(v) } else { "-".into() };
    for r in rows {
        t.row(&[
            r.direction.clone(),
            r.bytes.to_string(),
            r.messages.to_string(),
            opt(r.measured_s),
            opt(r.send_blocked_s),
            secs(r.modeled_s),
        ]);
    }
    t.render()
}

/// Formats seconds with 3 decimal places and an `s` suffix.
pub fn secs(v: f64) -> String {
    format!("{v:.3}s")
}

/// Formats a speedup factor like the paper (`2.35x`).
pub fn speedup(base: f64, ours: f64) -> String {
    format!("{:.2}x", base / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["a", "bbbb"]);
        t.row(&["xx".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("a   bbbb"));
        assert!(s.contains("xx  y"));
    }

    #[test]
    fn helpers() {
        assert_eq!(secs(1.2345), "1.234s");
        assert_eq!(speedup(10.0, 4.0), "2.50x");
    }

    #[test]
    fn transfer_table_surfaces_send_blocked_and_frames() {
        let s = transfer_table(
            "T",
            &[TransferRow {
                direction: "client -> server".into(),
                bytes: 1024,
                messages: 7,
                measured_s: 0.0,
                send_blocked_s: 0.25,
                modeled_s: 0.5,
            }],
        );
        assert!(s.contains("frames"));
        assert!(s.contains("send blocked"));
        assert!(s.contains("0.250s"));
        assert!(s.contains('7'));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
