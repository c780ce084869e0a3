//! Computation/communication overlap — the paper's central motivation for
//! the thread-based programming paradigm (§2), plus group communication:
//! every round, a 4-member group starts a nonblocking allreduce and a
//! nonblocking allgather of its partial results, keeps computing while
//! the runtime moves them, and only then waits for both.
//!
//! Run with: `cargo run --example compute_overlap`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs::collectives::{CollectiveGroup, ReduceOp};
use ncs::core::link::HpiLinkPair;
use ncs::core::{ConnectionConfig, NcsNode};

const MEMBERS: usize = 4;
const ROUNDS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Full mesh of HPI links between four nodes.
    let nodes: Vec<NcsNode> = (0..MEMBERS)
        .map(|i| NcsNode::builder(&format!("rank{i}")).build())
        .collect();
    for i in 0..MEMBERS {
        for j in (i + 1)..MEMBERS {
            let (li, lj) = HpiLinkPair::create();
            nodes[i].attach_peer(&format!("rank{j}"), li);
            nodes[j].attach_peer(&format!("rank{i}"), lj);
        }
    }
    // Pairwise group connections (lower rank initiates).
    let mut conns: Vec<HashMap<usize, ncs::core::NcsConnection>> =
        (0..MEMBERS).map(|_| HashMap::new()).collect();
    for i in 0..MEMBERS {
        for j in (i + 1)..MEMBERS {
            let cij = nodes[i].connect(&format!("rank{j}"), ConnectionConfig::reliable())?;
            let cji = nodes[j].accept_default()?;
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    let groups: Vec<Arc<CollectiveGroup>> = nodes
        .iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            Arc::new(CollectiveGroup::new(node, 7, rank, links).expect("group"))
        })
        .collect();

    // Each member, per round: start reducing and gathering its partial
    // result (the runtime's threads take it from there), immediately
    // compute MORE while the collectives are in flight — overlap in
    // action — then wait for both.
    let mut handles = Vec::new();
    for (rank, group) in groups.iter().enumerate() {
        let group = Arc::clone(group);
        handles.push(std::thread::spawn(move || {
            let mut total = 0u64;
            let mut compute_time = Duration::ZERO;
            let start = Instant::now();
            for round in 0..ROUNDS {
                // "Compute" a partial result.
                let t = Instant::now();
                let mut partial: u64 = 0;
                for x in 0..std::hint::black_box(200_000u64) {
                    partial =
                        std::hint::black_box(partial.wrapping_add(
                            x.wrapping_mul(rank as u64 + 1).wrapping_add(round as u64),
                        ));
                }
                compute_time += t.elapsed();
                // Hand it to the runtime...
                let sum = group
                    .iallreduce(vec![partial], ReduceOp::Sum)
                    .expect("iallreduce");
                let parts = group.iallgather(vec![partial]).expect("iallgather");
                // ...and immediately compute MORE while the peers'
                // results are still in flight (the overlap the paper is
                // about).
                let t = Instant::now();
                let mut extra: u64 = 0;
                for x in 0..std::hint::black_box(400_000u64) {
                    extra = std::hint::black_box(extra.wrapping_add(x));
                }
                std::hint::black_box(extra);
                compute_time += t.elapsed();
                // Collect this round's results.
                let sum = sum.wait().expect("allreduce")[0];
                let parts = parts.wait().expect("allgather");
                assert_eq!(parts.len(), MEMBERS);
                assert_eq!(parts[rank], partial, "own partial in rank order");
                let folded = parts.iter().fold(0u64, |a, &p| a.wrapping_add(p));
                assert_eq!(sum, folded, "allreduce must match the gathered partials");
                total = total.wrapping_add(sum);
            }
            (rank, total, compute_time, start.elapsed())
        }));
    }

    let mut totals = Vec::new();
    for h in handles {
        let (rank, total, compute, wall) = h.join().expect("member");
        println!(
            "rank{rank}: total {total:#018x}, computed {:.1?} of {:.1?} wall \
             ({:.0}% overlap-utilised)",
            compute,
            wall,
            100.0 * compute.as_secs_f64() / wall.as_secs_f64()
        );
        totals.push(total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "all members must agree on the reduced total"
    );
    println!("\nall {MEMBERS} members agree after {ROUNDS} iallreduce+iallgather rounds");

    drop(groups);
    for n in &nodes {
        n.shutdown();
    }
    Ok(())
}
