//! Property test for `spot_proto::Queue`: random send / recv / close /
//! `recv_batch` sequences, checked step by step against a `VecDeque`
//! model. A send on a full open queue or a receive on an empty open one
//! runs on a second thread and is released by the opposite call; a
//! batch that is neither full nor due is skipped.

use proptest::collection::vec;
use proptest::prelude::*;
use spot_proto::{ProtoError, Queue};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Op {
    Send(u32),
    Recv,
    Close,
    /// Up to `max` items; the front item is already due or never due.
    RecvBatch {
        max: usize,
        due_now: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0u32..1000, 1usize..6, 0u8..2).prop_map(|(kind, v, max, due)| match kind {
        0 => Op::Send(v),
        1 => Op::Recv,
        2 => Op::Close,
        _ => Op::RecvBatch {
            max,
            due_now: due == 1,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_a_vecdeque_model(bound in 0usize..5, ops in vec(op(), 0..60)) {
        // `bound` 0 stands for an unbounded queue.
        let (q, capacity) = match bound {
            0 => (Queue::unbounded(), usize::MAX),
            b => (Queue::bounded(b), b),
        };
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut closed = false;
        for op in ops {
            match op {
                Op::Send(v) if closed => {
                    prop_assert_eq!(q.send(v), Err(ProtoError::Disconnected));
                }
                Op::Send(v) if model.len() < capacity => {
                    prop_assert_eq!(q.send(v), Ok(Duration::ZERO));
                    model.push_back(v);
                }
                Op::Recv if closed || !model.is_empty() => {
                    prop_assert_eq!(q.recv(), (model.pop_front(), Duration::ZERO));
                }
                Op::Close => {
                    q.close();
                    closed = true;
                }
                Op::RecvBatch { max, due_now } => {
                    let ready = model.len() >= max || closed || due_now;
                    if model.is_empty() && !closed || !model.is_empty() && !ready {
                        continue;
                    }
                    let due = |_: &u32| match due_now {
                        true => Instant::now(),
                        false => Instant::now() + Duration::from_secs(3600),
                    };
                    let got = q.recv_batch(max, due);
                    if model.is_empty() {
                        prop_assert_eq!(got, None);
                    } else {
                        let batch = got.expect("a ready batch is released");
                        prop_assert!(!batch.is_empty() && batch.len() <= max);
                        let take = model.len().min(max);
                        prop_assert_eq!(batch, model.drain(..take).collect::<Vec<_>>());
                    }
                }
                // Full and open: the send blocks until a receive makes
                // room, and meanwhile nothing beyond capacity is queued.
                Op::Send(v) => {
                    let (queued, front, sent) = std::thread::scope(|s| {
                        let sender = s.spawn(|| q.send(v));
                        std::thread::sleep(Duration::from_millis(1));
                        let queued = q.depth();
                        let front = q.recv().0;
                        (queued, front, sender.join().expect("sender"))
                    });
                    prop_assert_eq!(queued, capacity);
                    prop_assert_eq!(front, model.pop_front());
                    prop_assert!(sent.is_ok());
                    model.push_back(v);
                }
                // Empty and open: the receive blocks until a send.
                Op::Recv => {
                    let got = std::thread::scope(|s| {
                        let receiver = s.spawn(|| q.recv().0);
                        std::thread::sleep(Duration::from_millis(1));
                        q.send(4242).map(|_| receiver.join().expect("receiver"))
                    });
                    prop_assert_eq!(got, Ok(Some(4242)));
                }
            }
            prop_assert_eq!(q.depth(), model.len());
            prop_assert!(q.depth() <= capacity);
        }
        // A closed queue drains in order and then stays empty.
        q.close();
        for v in model {
            prop_assert_eq!(q.recv().0, Some(v));
        }
        prop_assert_eq!(q.recv().0, None);
        prop_assert_eq!(q.recv_batch(3, |_| Instant::now()), None);
        prop_assert_eq!(q.send(1), Err(ProtoError::Disconnected));
    }
}
