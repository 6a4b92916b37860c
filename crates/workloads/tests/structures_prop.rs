//! Property tests of the persistent data structures against reference
//! implementations, exercised through the recording session.

use std::collections::{BTreeMap, HashMap};

use pmacc_prop::Gen;
use pmacc_workloads::{
    BPlusTree, HashTable, MemSession, PersistentQueue, RbTree, SkipList, SwapArray,
};

/// `(key, value, insert?)` triples driving the map-like structures.
fn arb_map_ops(g: &mut Gen) -> Vec<(u64, u64, bool)> {
    g.vec(1..250, |g| {
        (
            g.gen_range(0u64..64),
            g.gen_range(0u64..1_000),
            g.gen::<bool>(),
        )
    })
}

#[test]
fn rbtree_matches_btreemap() {
    pmacc_prop::check("rbtree_matches_btreemap", |g| {
        let ops = arb_map_ops(g);
        let mut s = MemSession::new(1);
        let t = RbTree::create(&mut s);
        let mut reference = BTreeMap::new();
        for (k, v, insert) in ops {
            if insert {
                t.insert(&mut s, k, v);
                reference.insert(k, v);
            } else {
                assert_eq!(t.search(&mut s, k), reference.get(&k).copied());
            }
        }
        t.check_invariants(&s).expect("rbtree invariants");
        assert_eq!(t.count(&s), reference.len() as u64);
        for (k, v) in reference {
            assert_eq!(t.peek_get(&s, k), Some(v));
        }
    });
}

#[test]
fn btree_matches_btreemap() {
    pmacc_prop::check("btree_matches_btreemap", |g| {
        let ops = arb_map_ops(g);
        let mut s = MemSession::new(2);
        let t = BPlusTree::create(&mut s);
        let mut reference = BTreeMap::new();
        for (k, v, insert) in ops {
            if insert {
                t.insert(&mut s, k, v);
                reference.insert(k, v);
            } else {
                assert_eq!(t.search(&mut s, k), reference.get(&k).copied());
            }
        }
        t.check_invariants(&s).expect("btree invariants");
        for (k, v) in reference {
            assert_eq!(t.peek_get(&s, k), Some(v));
        }
    });
}

#[test]
fn hashtable_matches_hashmap() {
    pmacc_prop::check("hashtable_matches_hashmap", |g| {
        let buckets_log2 = g.gen_range(0u32..6);
        let ops = g.vec(1..250, |g| {
            (
                g.gen_range(0u64..48),
                g.gen_range(0u64..1_000),
                g.gen::<bool>(),
            )
        });
        let mut s = MemSession::new(3);
        let t = HashTable::create(&mut s, 1 << buckets_log2);
        let mut reference = HashMap::new();
        for (k, v, insert) in ops {
            if insert {
                t.insert(&mut s, k, v);
                reference.insert(k, v);
            } else {
                assert_eq!(t.search(&mut s, k), reference.get(&k).copied());
            }
        }
        t.check(&s).expect("hashtable invariants");
        for (k, v) in reference {
            assert_eq!(t.peek(&s, k), Some(v));
        }
    });
}

#[test]
fn swap_array_stays_a_permutation() {
    pmacc_prop::check("swap_array_stays_a_permutation", |g| {
        let len = g.gen_range(2u64..64);
        let swaps = g.vec(0..200, |g| (g.gen_range(0u64..64), g.gen_range(0u64..64)));
        let mut s = MemSession::new(4);
        let a = SwapArray::create(&mut s, len);
        let mut reference: Vec<u64> = (0..len).collect();
        for (i, j) in swaps {
            let (i, j) = (i % len, j % len);
            a.swap(&mut s, i, j);
            reference.swap(i as usize, j as usize);
        }
        a.check_permutation(&s).expect("sps permutation");
        assert_eq!(a.snapshot(&s), reference);
    });
}

#[test]
fn skiplist_matches_btreemap() {
    pmacc_prop::check("skiplist_matches_btreemap", |g| {
        let ops = arb_map_ops(g);
        let mut s = MemSession::new(6);
        let sl = SkipList::create(&mut s);
        let mut reference = BTreeMap::new();
        for (k, v, insert) in ops {
            if insert {
                sl.insert(&mut s, k, v);
                reference.insert(k, v);
            } else {
                assert_eq!(sl.search(&mut s, k), reference.get(&k).copied());
            }
        }
        sl.check_invariants(&s).expect("skiplist invariants");
        assert_eq!(sl.count(&s), reference.len() as u64);
        for (k, v) in reference {
            assert_eq!(sl.peek_get(&s, k), Some(v));
        }
    });
}

#[test]
fn queue_matches_vecdeque() {
    pmacc_prop::check("queue_matches_vecdeque", |g| {
        let ops = g.vec(1..300, |g| (g.gen::<bool>(), g.gen_range(0u64..1_000)));
        let mut s = MemSession::new(7);
        let q = PersistentQueue::create(&mut s);
        let mut reference = std::collections::VecDeque::new();
        for (enq, v) in ops {
            if enq {
                q.enqueue(&mut s, v);
                reference.push_back(v);
            } else {
                assert_eq!(q.dequeue(&mut s), reference.pop_front());
            }
        }
        q.check(&s).expect("queue invariants");
        assert_eq!(q.snapshot(&s), Vec::from(reference));
    });
}

/// The trace-replay invariant at property scale: replaying the
/// recorded stores over the initial image reproduces the final image.
#[test]
fn trace_replay_reconstructs_memory() {
    pmacc_prop::check("trace_replay_reconstructs_memory", |g| {
        use pmacc_cpu::Op;
        let ops = g.vec(1..100, |g| (g.gen_range(0u64..32), g.gen_range(0u64..100)));
        let mut s = MemSession::new(5);
        let t = RbTree::create(&mut s);
        t.insert(&mut s, 1, 1); // some pre-recording state
        s.start_recording();
        for (k, v) in ops {
            t.insert(&mut s, k, v);
        }
        let (trace, initial, final_image) = s.finish();
        let mut mem: pmacc_mem::Backing = initial.into_iter().collect();
        for op in trace.ops() {
            if let Op::Store { addr, value } = op {
                mem.write_word(addr.word(), *value);
            }
        }
        assert_eq!(mem, final_image);
    });
}
