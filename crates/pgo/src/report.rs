//! Summary of what a rewrite did, for tool output and artifacts.

use std::fmt::Write as _;

/// Counters describing the transforms applied to one image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PgoReport {
    /// Procedures in the image.
    pub procs: usize,
    /// Procedures whose blocks were re-laid-out from frequency data.
    pub procs_laid_out: usize,
    /// Procedures kept in original instruction order (safety demotion or
    /// layout disabled).
    pub procs_identity: usize,
    /// True when whole procedures were reordered hot-first.
    pub packed: bool,
    /// Blocks whose position in their procedure changed.
    pub blocks_moved: usize,
    /// Conditional branches whose sense was inverted so the hot edge
    /// falls through.
    pub branches_inverted: usize,
    /// Unconditional branches inserted to preserve severed fallthroughs.
    pub branches_added: usize,
    /// Dead padding words inserted for alignment.
    pub pad_words: usize,
    /// Blocks whose instructions were rescheduled for better dual issue.
    pub blocks_rescheduled: usize,
    /// Indirect-call address units re-pointed at moved targets.
    pub call_patches: usize,
    /// Original text size in words.
    pub old_words: usize,
    /// Rewritten text size in words.
    pub new_words: usize,
    /// True when the translation validator proved the rewrite
    /// equivalent (only set when validation was requested).
    pub validated: bool,
    /// Old-text segments the validator examined (0 without validation).
    pub tv_segments: usize,
    /// Segments whose equivalence proof went through.
    pub tv_proved: usize,
}

impl PgoReport {
    /// True when the rewrite changed nothing but (possibly) encodings.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.blocks_moved == 0
            && self.branches_inverted == 0
            && self.branches_added == 0
            && self.pad_words == 0
            && self.blocks_rescheduled == 0
            && !self.packed
    }

    /// Multi-line human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "pgo: {} procs ({} laid out, {} identity){}",
            self.procs,
            self.procs_laid_out,
            self.procs_identity,
            if self.packed {
                ", packed hot-first"
            } else {
                ""
            },
        );
        let _ = writeln!(
            s,
            "pgo: {} blocks moved, {} branches inverted, {} added, {} rescheduled blocks",
            self.blocks_moved, self.branches_inverted, self.branches_added, self.blocks_rescheduled,
        );
        let _ = writeln!(
            s,
            "pgo: {} pad words, {} call patches, text {} -> {} words{}",
            self.pad_words,
            self.call_patches,
            self.old_words,
            self.new_words,
            if self.validated {
                ", statically validated"
            } else {
                ""
            },
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_detection() {
        assert!(PgoReport::default().is_noop());
        let busy = PgoReport {
            branches_inverted: 1,
            ..PgoReport::default()
        };
        assert!(!busy.is_noop());
    }

    #[test]
    fn render_mentions_counts() {
        let r = PgoReport {
            procs: 3,
            procs_laid_out: 2,
            procs_identity: 1,
            packed: true,
            blocks_moved: 4,
            ..PgoReport::default()
        };
        let s = r.render();
        assert!(s.contains("3 procs"));
        assert!(s.contains("packed hot-first"));
        assert!(s.contains("4 blocks moved"));
    }
}
