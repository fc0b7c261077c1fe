//! The one golden-file rule: [`check`] compares, reports and re-records;
//! [`blessing`] is the one reading of `DCPI_BLESS`.

use std::path::Path;

/// Moved lines named per section; the rest are counted in one line.
const CAP: usize = 20;

/// Whether `DCPI_BLESS` is set, so goldens are recorded, not checked.
#[must_use]
pub fn blessing() -> bool {
    std::env::var("DCPI_BLESS").is_ok()
}

/// Holds `now` to the golden at `path`, whose sections open with lines
/// starting with `header` (`None`: one section). Returns a message per
/// moved line, 20 per section, and per added or removed section; or none
/// after recording `now` under [`blessing`].
///
/// # Errors
///
/// The golden cannot be written.
pub fn check(path: &Path, now: &str, header: Option<&str>) -> std::io::Result<Vec<String>> {
    if blessing() {
        std::fs::write(path, now)?;
        return Ok(Vec::new());
    }
    let old = std::fs::read_to_string(path).ok();
    Ok(diff(path, old.as_deref(), now, header))
}

/// One message per line moved from golden `old` (`None`: none at `path`)
/// to `now`, [`CAP`] per section; sections match by header line, so one
/// added or removed is named once. Empty exactly when `old == now`.
fn diff(path: &Path, old: Option<&str>, now: &str, header: Option<&str>) -> Vec<String> {
    let file = path.file_name().unwrap_or_default().to_string_lossy();
    let Some(old) = old else {
        return vec![format!("{file}: no golden; record one with DCPI_BLESS=1")];
    };
    let (was, is) = (sections(old, header), sections(now, header));
    let side = |s: Option<&&str>| s.map_or("<none>".into(), |s| format!("{s:?}"));
    let mut out = Vec::new();
    for (key, _, new) in &is {
        let name = format!("{}{}", key.0, if key.0.is_empty() { "" } else { ": " });
        let Some((_, first, rec)) = was.iter().find(|w| w.0 == *key) else {
            out.push(format!("{file}: {} added ({} lines)", key.0, new.len()));
            continue;
        };
        // Past the common head and tail, the i-th lines of each side pair.
        let head = shared(rec.iter(), new.iter());
        let tail = shared(rec[head..].iter().rev(), new[head..].iter().rev());
        let (a, b) = (&rec[head..rec.len() - tail], &new[head..new.len() - tail]);
        let n = a.len().max(b.len());
        let moved: Vec<usize> = (0..n).filter(|&i| a.get(i) != b.get(i)).collect();
        for &i in moved.iter().take(CAP) {
            let (was, is) = (side(a.get(i)), side(b.get(i)));
            out.push(format!("{file}:{}: {name}{was} → {is}", first + head + i));
        }
        if moved.len() > CAP {
            out.push(format!("{file}: {name}… and {} more", moved.len() - CAP));
        }
    }
    for ((name, _), first, lines) in was.iter().filter(|w| !is.iter().any(|s| s.0 == w.0)) {
        let (at, n) = (first - 1, lines.len());
        out.push(format!("{file}:{at}: {name} removed ({n} lines)"));
    }
    if out.is_empty() && old != now {
        out.push(format!("{file}: same lines; order or final newline moved"));
    }
    out
}

/// Header line ("" before the first) and repeats, first line, lines.
type Section<'a> = ((&'a str, usize), usize, Vec<&'a str>);

fn sections<'a>(text: &'a str, header: Option<&str>) -> Vec<Section<'a>> {
    let mut out = vec![(("", 0), 1, Vec::new())];
    for (i, line) in text.lines().enumerate() {
        if header.is_some_and(|h| line.starts_with(h)) {
            let nth = out.iter().filter(|s| s.0 .0 == line).count();
            out.push(((line, nth), i + 2, Vec::new()));
        } else if let Some(s) = out.last_mut() {
            s.2.push(line);
        }
    }
    out
}

/// How many leading items `a` and `b` have in common.
fn shared<T: PartialEq>(a: impl Iterator<Item = T>, b: impl Iterator<Item = T>) -> usize {
    a.zip(b).take_while(|(a, b)| a == b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(old: &str, now: &str, header: Option<&str>) -> Vec<String> {
        diff(Path::new("dir/g.txt"), Some(old), now, header)
    }

    const OLD: &str = "intro\n== one\na 1\nb 2\nc 3\n== two\nd 4\ne 5\n";

    #[test]
    fn identical_texts_report_nothing() {
        assert!(run(OLD, OLD, Some("== ")).is_empty());
        assert!(run("", "", None).is_empty());
    }

    #[test]
    fn each_moved_line_is_named_with_its_section_and_golden_line() {
        let now = OLD.replace("b 2", "b 20").replace("e 5", "e 6");
        assert_eq!(
            run(OLD, &now, Some("== ")),
            [
                r#"g.txt:4: == one: "b 2" → "b 20""#,
                r#"g.txt:8: == two: "e 5" → "e 6""#,
            ]
        );
    }

    #[test]
    fn a_line_appended_at_the_end_has_no_old_side() {
        let now = format!("{OLD}f 6\n");
        assert_eq!(
            run(OLD, &now, Some("== ")),
            [r#"g.txt:9: == two: <none> → "f 6""#]
        );
        assert_eq!(
            run(&now, OLD, Some("== ")),
            [r#"g.txt:9: == two: "f 6" → <none>"#]
        );
    }

    #[test]
    fn a_removed_or_inserted_line_shifts_none_after_it() {
        let now = OLD.replace("b 2\n", "");
        assert_eq!(
            run(OLD, &now, Some("== ")),
            [r#"g.txt:4: == one: "b 2" → <none>"#]
        );
        assert_eq!(
            run(&now, OLD, Some("== ")),
            [r#"g.txt:4: == one: <none> → "b 2""#]
        );
        let now = OLD.replace("a 1\n", "").replace("c 3", "c 30");
        assert_eq!(
            run(OLD, &now, Some("== ")),
            [
                r#"g.txt:3: == one: "a 1" → "b 2""#,
                r#"g.txt:4: == one: "b 2" → "c 30""#,
                r#"g.txt:5: == one: "c 3" → <none>"#,
            ],
            "two edits in one section pair line by line between them"
        );
    }

    #[test]
    fn added_and_removed_sections_are_named_and_shift_nothing() {
        let now = OLD
            .replace("== one\na 1\nb 2\nc 3\n", "")
            .replace("intro\n", "intro\n== zero\nz 0\n")
            .replace("e 5", "e 50");
        assert_eq!(
            run(OLD, &now, Some("== ")),
            [
                "g.txt: == zero added (1 lines)",
                r#"g.txt:8: == two: "e 5" → "e 50""#,
                "g.txt:2: == one removed (3 lines)",
            ]
        );
    }

    #[test]
    fn moved_lines_past_the_cap_are_counted() {
        let old: String = (0..CAP + 5).map(|i| format!("x {i}\n")).collect();
        let now = old.replace("x ", "y ");
        let got = run(&old, &now, Some("== "));
        assert_eq!(got.len(), CAP + 1);
        assert_eq!(got[0], r#"g.txt:1: "x 0" → "y 0""#);
        assert_eq!(
            got[CAP - 1],
            format!(r#"g.txt:{CAP}: "x {}" → "y {}""#, CAP - 1, CAP - 1)
        );
        assert_eq!(got[CAP], "g.txt: … and 5 more");
    }

    #[test]
    fn text_without_headers_is_one_section() {
        let now = OLD.replace("d 4", "d 5");
        assert_eq!(run(OLD, &now, None), [r#"g.txt:7: "d 4" → "d 5""#]);
        // The same header lines are plain lines then, and moving one is a
        // moved line, not an added section.
        let now = OLD.replace("== two", "== 2");
        assert_eq!(run(OLD, &now, None), [r#"g.txt:6: "== two" → "== 2""#]);
    }

    #[test]
    fn a_missing_golden_is_one_message() {
        assert_eq!(
            diff(Path::new("dir/g.txt"), None, OLD, Some("== ")),
            ["g.txt: no golden; record one with DCPI_BLESS=1"]
        );
    }

    #[test]
    fn texts_that_differ_only_in_order_or_final_newline_still_differ() {
        let swapped = "intro\n== two\nd 4\ne 5\n== one\na 1\nb 2\nc 3\n";
        assert_eq!(run(OLD, swapped, Some("== ")).len(), 1);
        assert_eq!(run(OLD, OLD.trim_end(), Some("== ")).len(), 1);
    }

    #[test]
    fn a_repeated_header_is_matched_by_its_occurrence() {
        let old = "== a\n1\n== a\n2\n";
        assert_eq!(
            run(old, "== a\n1\n== a\n3\n", Some("== ")),
            [r#"g.txt:4: == a: "2" → "3""#]
        );
    }
}
