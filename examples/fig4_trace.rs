//! Figure 4: the message buffers of BRB instance ℓ1, materialized on a DAG.
//!
//! Reconstructs the paper's Figure 4 scenario — `(ℓ1, broadcast(42))`
//! inscribed in server 0's genesis block of a 4-server block DAG — and
//! prints, for every block, the `Ms[in, ℓ1]` and `Ms[out, ℓ1]` buffers the
//! interpretation computes. None of these ECHO/READY messages is ever sent
//! over the network; every server interpreting this DAG "gets the same
//! picture" (§5).
//!
//! Run with: `cargo run --example fig4_trace`

use std::collections::BTreeMap;

use dagbft::dag::interpret::BlockState;
use dagbft::prelude::*;

/// Builds `rounds` rounds of a fully-connected block DAG for `n` servers;
/// the first server's genesis block carries `(ℓ1, broadcast(42))`.
fn build_dag(n: usize, rounds: u64) -> (BlockDag, Vec<Vec<Block>>) {
    let registry = KeyRegistry::generate(n, 4);
    let signers: Vec<_> = (0..n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut dag = BlockDag::new();
    let mut layers: Vec<Vec<Block>> = Vec::new();

    for round in 0..rounds {
        let preds: Vec<BlockRef> = layers
            .last()
            .map(|layer| layer.iter().map(Block::block_ref).collect())
            .unwrap_or_default();
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = if round == 0 && index == 0 {
                vec![LabeledRequest::encode(
                    Label::new(1),
                    &BrbRequest::Broadcast(42u64),
                )]
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(index as u32),
                SeqNum::new(round),
                preds.clone(),
                requests,
                signer,
            );
            dag.insert(block.clone()).expect("preds inserted");
            layer.push(block);
        }
        layers.push(layer);
    }
    (dag, layers)
}

/// Renders a message set the way Figure 4 annotates blocks.
fn render<'a>(
    envelopes: impl Iterator<Item = &'a Envelope<BrbMessage<u64>>>,
    direction_in: bool,
) -> String {
    let mut by_message: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for envelope in envelopes {
        let message = match &envelope.message {
            BrbMessage::Echo(v) => format!("ECHO {v}"),
            BrbMessage::Ready(v) => format!("READY {v}"),
        };
        let party = if direction_in {
            envelope.sender.to_string()
        } else {
            envelope.receiver.to_string()
        };
        by_message.entry(message).or_default().push(party);
    }
    if by_message.is_empty() {
        return "∅".to_owned();
    }
    by_message
        .into_iter()
        .map(|(message, parties)| {
            let direction = if direction_in { "from" } else { "to" };
            format!("{message} {direction} {{{}}}", parties.join(", "))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn main() {
    let n = 4;
    let rounds = 4;
    let (dag, layers) = build_dag(n, rounds);

    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter.step(&dag);
    let label = Label::new(1);

    println!("=== Figure 4: Ms[in/out, ℓ1] for broadcast(42) in B1.rs ===\n");
    for (round, layer) in layers.iter().enumerate() {
        println!("-- round k{round} --");
        for block in layer {
            let state: &BlockState<Brb<u64>> =
                interpreter.state(&block.block_ref()).expect("interpreted");
            println!(
                "  {}/{}  in  = {}",
                block.builder(),
                block.seq(),
                render(
                    interpreter.in_messages(&dag, &block.block_ref(), label),
                    true
                )
            );
            println!("        out = {}", render(state.out_messages(label), false));
        }
    }

    let deliveries: Vec<_> = interpreter
        .drain_indications()
        .into_iter()
        .filter(|i| i.label == label)
        .collect();
    println!("\n--- deliveries (lines 13–14 of Algorithm 2) ---");
    for indication in &deliveries {
        let BrbIndication::Deliver(value) = indication.indication;
        println!("  {} delivers {}", indication.server, value);
    }

    let stats = interpreter.stats();
    println!("\n--- the compression claim, quantified ---");
    println!(
        "blocks in the DAG      : {:>4}  (the only network objects)",
        dag.len()
    );
    println!(
        "messages materialized  : {:>4}  (ECHO/READY — zero sent on the wire)",
        stats.messages_materialized
    );

    assert_eq!(deliveries.len(), n, "every server delivers 42");
    println!("\nOK: all {n} simulated servers delivered 42 from the same DAG.");
}
