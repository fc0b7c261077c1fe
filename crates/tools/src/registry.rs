//! Image registry: the tools' view of which images exist, their names,
//! and their symbol tables.

use dcpi_core::{ImageId, UNKNOWN_IMAGE};
use dcpi_isa::image::Image;
use std::collections::BTreeMap;
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

/// Maps image ids to images for symbol and name lookup, in id order: a
/// procedure name that two images define resolves to the lower id, on
/// every run.
#[derive(Clone, Debug, Default)]
pub struct ImageRegistry {
    images: BTreeMap<ImageId, Arc<Image>>,
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
        os.images()
            .map(|li| (li.id, Arc::clone(&li.image)))
            .collect()
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

    /// All `(id, image)` pairs, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ImageId, &Arc<Image>)> {
        self.images.iter().map(|(&id, img)| (id, img))
    }
}

impl FromIterator<(ImageId, Arc<Image>)> for ImageRegistry {
    fn from_iter<I: IntoIterator<Item = (ImageId, Arc<Image>)>>(iter: I) -> ImageRegistry {
        ImageRegistry {
            images: iter.into_iter().collect(),
        }
    }
}

impl Extend<(ImageId, Arc<Image>)> for ImageRegistry {
    /// Registers each image; a repeated id keeps the last image given.
    fn extend<I: IntoIterator<Item = (ImageId, Arc<Image>)>>(&mut self, iter: I) {
        self.images.extend(iter);
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

    /// Two images that both define `hot`, registered in every order,
    /// many times over (a hashed table would change its order between
    /// tables): lookups and the PGO side resolve the name to the lower id.
    #[test]
    fn duplicate_procedure_names_resolve_to_the_lower_id() {
        use crate::{find_procedure, pgo_side};
        use dcpi_core::{Event, ProfileSet};
        use dcpi_isa::reg::Reg;
        let image = |name: &str| {
            let mut a = Asm::new(name);
            a.proc("hot");
            a.li(Reg::T0, 8);
            let top = a.here();
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.ret(Reg::RA);
            Arc::new(a.finish())
        };
        let (low, high) = (ImageId(2), ImageId(5));
        let mut set = ProfileSet::new();
        set.add(low, Event::Cycles, 4, 1800);
        set.add(low, Event::Cycles, 8, 200);
        set.add(high, Event::Cycles, 4, 600);
        set.add(high, Event::Cycles, 8, 600);
        let alone: ImageRegistry = [(low, image("/bin/low"))].into_iter().collect();
        let want = pgo_side(&set, &alone, 10).procs["hot"].clone();
        assert_ne!(
            want,
            pgo_side(
                &set,
                &[(high, image("/bin/high"))].into_iter().collect(),
                10
            )
            .procs["hot"],
            "the two images' analyses must differ for the test to tell them apart"
        );
        for round in 0..16 {
            let mut pairs = vec![(low, image("/bin/low")), (high, image("/bin/high"))];
            if round % 2 == 1 {
                pairs.reverse();
            }
            let mut r = ImageRegistry::new();
            r.extend(pairs);
            let ids: Vec<ImageId> = r.iter().map(|(id, _)| id).collect();
            assert_eq!(ids, [low, high]);
            let (id, img, sym) = find_procedure(&r, "hot").unwrap();
            assert_eq!(
                (id, img.name(), sym.name.as_str()),
                (low, "/bin/low", "hot")
            );
            assert_eq!(pgo_side(&set, &r, 10).procs["hot"], want);
        }
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
