//! Property test for `spot_proto::Queue`: random send / recv / close
//! sequences, checked step by step against a `VecDeque` model. A send
//! on a full open queue or a receive on an empty open one runs on a
//! second thread and is released by the opposite call.

use proptest::collection::vec;
use proptest::prelude::*;
use spot_proto::{ProtoError, Queue};
use std::collections::VecDeque;
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Op {
    Send(u32),
    Recv,
    Close,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u32..1000).prop_map(|(kind, v)| match kind {
        0 => Op::Send(v),
        1 => Op::Recv,
        _ => Op::Close,
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
        prop_assert_eq!(q.send(1), Err(ProtoError::Disconnected));
    }
}
