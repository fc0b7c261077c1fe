//! Image registry: the tools' view of which images exist, their names,
//! and their symbol tables.

use dcpi_core::{ImageId, UNKNOWN_IMAGE};
use dcpi_isa::image::Image;
use std::collections::HashMap;
use std::sync::Arc;

/// Every CLI binary this crate ships, in the order the paper (and
/// README) present them. `tests/cli.rs` walks it to hold each one to the
/// `dcpi_core::cli` contract (nothing typed is ignored; a usage error is
/// exit 2 with nothing written).
pub const TOOL_NAMES: &[&str] = &[
    "dcpiprof",
    "dcpicalc",
    "dcpistats",
    "dcpisumm",
    "dcpidiff",
    "dcpicfg",
    "dcpicheck",
    "dcpistat",
    "dcpitop",
    "dcpitrace",
    "dcpipgo",
    "dcpifleet",
];

/// Maps image ids to images for symbol and name lookup.
#[derive(Clone, Debug, Default)]
pub struct ImageRegistry {
    images: HashMap<ImageId, Arc<Image>>,
}

impl ImageRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> ImageRegistry {
        ImageRegistry::default()
    }

    /// Registers an image under an id.
    pub fn insert(&mut self, id: ImageId, image: Arc<Image>) {
        self.images.insert(id, image);
    }

    /// Builds a registry from a machine OS's image table.
    #[must_use]
    pub fn from_os(os: &dcpi_machine::Os) -> ImageRegistry {
        let mut r = ImageRegistry::new();
        for li in os.images() {
            r.insert(li.id, Arc::clone(&li.image));
        }
        r
    }

    /// Looks up an image.
    #[must_use]
    pub fn get(&self, id: ImageId) -> Option<&Arc<Image>> {
        self.images.get(&id)
    }

    /// The display name for an image (pathname, or `unknown` for the
    /// special unknown image).
    #[must_use]
    pub fn name(&self, id: ImageId) -> &str {
        if id == UNKNOWN_IMAGE {
            return "unknown";
        }
        self.images.get(&id).map_or("?", |img| img.name())
    }

    /// The procedure name containing `offset` in `id`, or a hex fallback.
    #[must_use]
    pub fn proc_name(&self, id: ImageId, offset: u64) -> String {
        self.images
            .get(&id)
            .and_then(|img| img.symbol_at(offset))
            .map_or_else(|| format!("0x{offset:x}"), |s| s.name.clone())
    }

    /// All `(id, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ImageId, &Arc<Image>)> {
        self.images.iter().map(|(&id, img)| (id, img))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;

    fn sample_image() -> Arc<Image> {
        let mut a = Asm::new("/bin/app");
        a.proc("alpha");
        a.halt();
        a.proc("beta");
        a.halt();
        Arc::new(a.finish())
    }

    #[test]
    fn name_and_proc_lookup() {
        let mut r = ImageRegistry::new();
        r.insert(ImageId(3), sample_image());
        assert_eq!(r.name(ImageId(3)), "/bin/app");
        assert_eq!(r.name(UNKNOWN_IMAGE), "unknown");
        assert_eq!(r.name(ImageId(9)), "?");
        assert_eq!(r.proc_name(ImageId(3), 0), "alpha");
        assert_eq!(r.proc_name(ImageId(3), 4), "beta");
        assert_eq!(r.proc_name(ImageId(3), 0x100), "0x100");
    }

    #[test]
    fn tool_roster_matches_the_bin_directory() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut found: Vec<String> = std::fs::read_dir(bins)
            .expect("src/bin")
            .map(|e| {
                let name = e.expect("entry").file_name();
                name.to_string_lossy().trim_end_matches(".rs").to_string()
            })
            .collect();
        found.sort();
        let mut roster: Vec<String> = TOOL_NAMES.iter().map(ToString::to_string).collect();
        roster.sort();
        assert_eq!(found, roster);
    }

    #[test]
    fn from_os_includes_kernel() {
        let os = dcpi_machine::Os::new(
            1,
            8192,
            dcpi_machine::os::default_kernel(),
            None,
            dcpi_isa::pipeline::PipelineModel::default(),
        );
        let r = ImageRegistry::from_os(&os);
        assert_eq!(r.name(os.kernel_image()), "/vmunix");
    }
}
