//! dcpitop `--flame`: a speedscope flamegraph document from a profile
//! database's calling-context sidecars. An observability export is
//! rendered by `dcpistat`, the one renderer of an export.

use crate::dbload::stack_frame_name;
use crate::registry::ImageRegistry;
use dcpi_core::Event;
use dcpi_stacks::{speedscope, StackProfile};

/// Renders `dcpitop --flame`: the speedscope JSON document for one
/// event of a merged calling-context profile, symbolized through the
/// registry. Byte-deterministic for a given profile — goldens and CI
/// artifacts diff cleanly. Open the result at
/// <https://www.speedscope.app> or with any speedscope-format viewer.
#[must_use]
pub fn dcpitop_flame(
    stacks: &StackProfile,
    registry: &ImageRegistry,
    event: Event,
    title: &str,
) -> String {
    speedscope::export(stacks, event, title, &|f| stack_frame_name(registry, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flame_export_is_schema_clean_and_deterministic() {
        use dcpi_core::{ImageId, Pid};
        let f = |off| dcpi_stacks::Frame {
            image: ImageId(1),
            offset: off,
        };
        let mut stacks = StackProfile::new();
        stacks.record(Event::Cycles.code(), Pid(1), &[f(0), f(4)], 9);
        stacks.record(Event::Cycles.code(), Pid(2), &[f(0)], 1);
        let reg = ImageRegistry::new();
        let doc = dcpitop_flame(&stacks, &reg, Event::Cycles, "unit");
        speedscope::check_schema(&doc).unwrap();
        assert_eq!(doc, dcpitop_flame(&stacks, &reg, Event::Cycles, "unit"));
        // Unregistered images symbolize as hex, not a panic.
        assert!(doc.contains("0x4 [?]"), "{doc}");
    }
}
