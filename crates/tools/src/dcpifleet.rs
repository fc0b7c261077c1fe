//! dcpifleet: run and query the fleet-wide profile repository.
//!
//! `run` drives a whole simulated fleet ([`dcpi_server::fleet`]) to
//! quiesce under a seeded fault plan and prints the conservation
//! report. The query forms answer the paper's "where have all the
//! cycles gone, building-wide?" directly from a server root:
//!
//! * `top` — fleet-wide top-N images by samples (the Table 4 view, but
//!   aggregated over every machine). Opens every profile file once and
//!   keeps only its total.
//! * `agents` — per-agent upload accounting, re-derived from the WAL
//!   alone: the checkpoint's per-agent totals plus the frames journaled
//!   since (uploads and samples are *journal* facts, not in-memory
//!   state).
//! * `image` — one image's per-event totals across the fleet. Opens only
//!   the files named for that image.

use dcpi_core::codec::Format;
use dcpi_core::db::{escape_image_name, ProfileDb};
use dcpi_core::{ImageId, UNKNOWN_IMAGE};
use dcpi_server::journal::{self, WAL_FILE};
use dcpi_server::{image_event_totals, image_totals};
use std::fmt::Write as _;
use std::path::Path;

fn open_db(root: &Path) -> Result<ProfileDb, String> {
    ProfileDb::open(root.join("db"), Format::V2)
        .map_err(|e| format!("no fleet database under {}: {e}", root.display()))
}

fn unreadable(root: &Path, e: &dcpi_core::Error) -> String {
    format!(
        "cannot read the fleet database under {}: {e}",
        root.display()
    )
}

fn image_label(db: &ProfileDb, image: ImageId) -> String {
    if image == UNKNOWN_IMAGE {
        "<unknown>".to_owned()
    } else {
        // Escaped: a name is whatever an agent uploaded.
        db.image_name(image)
            .map_or_else(|| format!("image#{}", image.0), escape_image_name)
    }
}

/// `dcpifleet top <root> [n]`: fleet-wide top-N images by samples.
///
/// # Errors
///
/// Returns a message if the root holds no fleet database or any of it
/// cannot be read (no partial totals).
pub fn dcpifleet_top(root: &Path, n: usize) -> Result<String, String> {
    let db = open_db(root)?;
    let (mut rows, total, unknown) = image_totals(&db).map_err(|e| unreadable(root, &e))?;
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet database: {} epoch(s), {} sample(s) ({} unknown)",
        db.epochs().map_or(0, |e| e.len()),
        total,
        unknown
    );
    let _ = writeln!(out, "{:>12}  {:>6}  image", "samples", "%");
    for (image, samples) in rows.iter().take(n) {
        let pct = if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                *samples as f64 * 100.0 / total as f64
            }
        };
        let _ = writeln!(
            out,
            "{samples:>12}  {pct:>5.1}%  {}",
            image_label(&db, *image)
        );
    }
    Ok(out)
}

/// `dcpifleet image <root> <id>`: one image's per-event fleet totals.
///
/// # Errors
///
/// Returns a message if the root holds no fleet database or one of the
/// image's files cannot be read.
pub fn dcpifleet_image(root: &Path, image: u32) -> Result<String, String> {
    let db = open_db(root)?;
    let image = ImageId(image);
    let rows = image_event_totals(&db, image).map_err(|e| unreadable(root, &e))?;
    let mut out = String::new();
    let _ = writeln!(out, "{} across the fleet:", image_label(&db, image));
    if rows.is_empty() {
        let _ = writeln!(out, "  no samples");
    }
    for (event, samples) in rows {
        let _ = writeln!(out, "{samples:>12}  {event:?}");
    }
    Ok(out)
}

/// `dcpifleet agents <root>`: per-agent upload accounting from the WAL.
///
/// # Errors
///
/// Returns a message if the WAL cannot be read.
pub fn dcpifleet_agents(root: &Path) -> Result<String, String> {
    let no_wal = |e: std::io::Error| format!("no WAL under {}: {e}", root.display());
    let scan = journal::scan(&root.join(WAL_FILE)).map_err(no_wal)?;
    let tail = scan.tail().map_err(no_wal)?;
    let mut rows = tail
        .checkpoint
        .map(|c| c.agents.clone())
        .unwrap_or_default();
    for (agent, seq, batch) in tail
        .frames
        .iter()
        .filter_map(|f| journal::decode_upload(f).ok())
    {
        let row = rows.entry(agent).or_default();
        row.add(seq, batch.sample_total(), &batch.ledger);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6}  {:>8}  {:>8}  {:>12}  {:>12}  {:>12}",
        "agent", "uploads", "last-seq", "samples", "generated", "losses"
    );
    for (agent, r) in &rows {
        let _ = writeln!(
            out,
            "{agent:>6}  {:>8}  {:>8}  {:>12}  {:>12}  {:>12}",
            r.uploads, r.last_seq, r.samples, r.generated, r.losses
        );
    }
    let _ = writeln!(out, "{} agent(s) journaled", rows.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_obs::Obs;
    use dcpi_server::fleet::{run_fleet, FleetConfig};
    use dcpi_testkit::TempRoot;

    fn fleet_root(tag: &str) -> TempRoot {
        let dir = TempRoot::new(&format!("dcpifleet-{tag}"));
        let cfg = FleetConfig::new(&dir, 6, 21);
        let report = run_fleet(&cfg, &Obs::default()).unwrap();
        assert!(report.conserves());
        dir
    }

    #[test]
    fn queries_render_the_fleet() {
        let root = fleet_root("queries");
        let top = dcpifleet_top(&root, 5).unwrap();
        assert!(top.contains("fleet database"), "{top}");
        assert!(top.contains("/usr/bin/mccalpin"), "{top}");
        let agents = dcpifleet_agents(&root).unwrap();
        assert!(agents.contains("6 agent(s) journaled"), "{agents}");
        let image = dcpifleet_image(&root, 1).unwrap();
        assert!(image.contains("Cycles"), "{image}");
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let gone = std::env::temp_dir().join("dcpi-flt-nope");
        assert!(dcpifleet_top(&gone, 3).is_err());
        assert!(dcpifleet_image(&gone, 1).is_err());
        assert!(dcpifleet_agents(&gone).is_ok(), "missing WAL scans empty");
    }
}
