//! Differential test for prefix reuse in [`StackTable`].
//!
//! `intern` and `intern_leaf_first` resume from the deepest node the new
//! stack shares with the one interned last. The reference here never
//! does: it walks [`StackTable::child`] frame by frame from the root, the
//! way `intern` used to. Random stacks — fresh ones, exact repeats,
//! prefixes and extensions of the previous one, forks at a random depth —
//! go into both, interleaved with everything else that touches a table
//! (`child`, `StackProfile::merge`, `clear_counts`, clone), and the two
//! must agree on every ID and end with the same node list. Seeded, so a
//! failure reproduces from the step number in the message.

use dcpi_core::prng::CartaRng;
use dcpi_core::{ImageId, Pid};
use dcpi_stacks::{Frame, StackProfile, ROOT};

const STACKS: usize = 12_000;
const MAX_DEPTH: u64 = 64;

/// A small frame universe, so that unrelated stacks still share prefixes.
fn frame(rng: &mut CartaRng) -> Frame {
    Frame {
        image: ImageId(rng.uniform(0, 2) as u32),
        offset: rng.uniform(0, 5) * 4,
    }
}

/// The next stack (outermost-first), derived from the previous one.
fn next_stack(rng: &mut CartaRng, prev: &[Frame]) -> Vec<Frame> {
    let mut s = prev.to_vec();
    match rng.uniform(0, 9) {
        // Exact repeat.
        0 | 1 => {}
        // A strict prefix of the previous stack (down to the empty one).
        2 => s.truncate(rng.uniform(0, s.len() as u64) as usize),
        // The previous stack is a strict prefix of this one.
        3 => {
            let room = MAX_DEPTH - s.len() as u64;
            s.extend((0..rng.uniform(0, room.min(6))).map(|_| frame(rng)));
        }
        // Fork: keep a prefix, replace the rest.
        4..=7 => {
            s.truncate(rng.uniform(0, s.len() as u64) as usize);
            let room = MAX_DEPTH - s.len() as u64;
            s.extend((0..rng.uniform(0, room.min(8))).map(|_| frame(rng)));
        }
        8 => s.clear(),
        // Unrelated, any depth up to the maximum.
        _ => {
            s.clear();
            s.extend((0..rng.uniform(0, MAX_DEPTH)).map(|_| frame(rng)));
        }
    }
    s
}

/// The reference interner: one `child` step per frame, from the root.
fn walk(p: &mut StackProfile, frames: &[Frame]) -> u32 {
    frames.iter().fold(ROOT, |id, &f| p.table.child(id, f))
}

fn assert_same(fast: &StackProfile, slow: &StackProfile, what: &str) {
    assert!(
        fast.table.nodes().eq(slow.table.nodes()),
        "{what}: node lists differ"
    );
    // Equality ignores the remembered stack: `slow` never has one.
    assert_eq!(fast, slow, "{what}: profiles differ");
    assert_eq!(
        fast.to_bytes(),
        slow.to_bytes(),
        "{what}: DCST bytes differ"
    );
    fast.table.check_bijective().expect(what);
}

#[test]
fn prefix_reuse_assigns_the_ids_of_the_plain_walk() {
    let mut rng = CartaRng::new(0x57ac5);
    let (mut fast, mut slow) = (StackProfile::new(), StackProfile::new());
    let mut stack = Vec::new();
    let mut deepest = 0;
    for step in 0..STACKS {
        let what = format!("step {step}");
        stack = next_stack(&mut rng, &stack);
        deepest = deepest.max(stack.len());
        let (event, pid, count) = (rng.uniform(0, 1) as u8, rng.uniform(1, 3), step as u64);
        let expect = walk(&mut slow, &stack);
        match rng.uniform(0, 2) {
            0 => assert_eq!(fast.table.intern(&stack), expect, "{what}: intern"),
            1 => {
                let leaf_first: Vec<Frame> = stack.iter().rev().copied().collect();
                let got = fast.table.intern_leaf_first(&leaf_first);
                assert_eq!(got, expect, "{what}: intern_leaf_first");
            }
            _ => {
                fast.record(event, Pid(pid as u32), &stack, count);
                *slow.counts.entry((event, pid as u32, expect)).or_insert(0) += count;
                assert!(fast.counts.contains_key(&(event, pid as u32, expect)));
            }
        }
        assert_eq!(fast.table.frames(expect), stack, "{what}: frames");
        // Between two interns, everything else that touches the table.
        match rng.uniform(0, 19) {
            0 | 1 => {
                // A bare `child` step somewhere in the tree, possibly a
                // new node right under the remembered stack.
                let parent = rng.uniform(0, fast.table.len() as u64) as u32;
                let f = frame(&mut rng);
                assert_eq!(
                    fast.table.child(parent, f),
                    slow.table.child(parent, f),
                    "{what}: child"
                );
            }
            2 => {
                // Merge a foreign profile whose IDs mean something else.
                let mut other = StackProfile::new();
                let mut s = Vec::new();
                for _ in 0..rng.uniform(0, 6) {
                    s = next_stack(&mut rng, &s);
                    other.record(0, Pid(9), &s, 1);
                }
                fast.merge(&other);
                slow.merge(&other);
            }
            3 => {
                fast.clear_counts();
                slow.clear_counts();
            }
            4 => {
                // Carry on in a clone: it takes the remembered stack along.
                let clone = fast.clone();
                assert_eq!(clone, fast, "{what}: clone");
                fast = clone;
            }
            _ => {}
        }
        if step % 500 == 0 {
            assert_same(&fast, &slow, &what);
        }
    }
    assert_same(&fast, &slow, "end");
    assert_eq!(deepest, MAX_DEPTH as usize, "the depth range was covered");
    assert!(fast.table.len() > 1000, "the table grew");
}
