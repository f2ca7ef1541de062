//! The simulator's pending events and armed timers.
//!
//! Everything that happens at a point of virtual time is popped from an
//! [`EventQueue`] in strict `(time, seq)` order, `seq` being the order in
//! which events were pushed and timers armed. Two structures share that
//! one sequence counter:
//!
//! * *runs* hold deliveries, executor runs, ticks and crashes. A run is a
//!   list of entries due at one instant, in `seq` order, linked through
//!   `nodes`, one slab the queue owns: a node holds its `seq`, the
//!   delivery or event itself, and the index of the next node of its run.
//!   Consecutive pushes for one instant append to the *open* run; a push
//!   for another instant closes it into `runs`, a heap keyed by
//!   `(time, head seq)`, and opens a new one. So two runs of one instant
//!   never interleave — every entry of the later was pushed after every
//!   entry of the earlier — and the heads order the runs. Pops drain the
//!   *serving* run, the least one, node by node with no heap operation; a
//!   push that lands before it (possible only after a deadline popped
//!   ahead of it) files it back into the heap. A popped node goes on the
//!   slab's free chain, so an entry costs no allocation once the slab has
//!   grown to the run's peak.
//!
//!   Instants are crowded: the saturated verifier's 100 `RESPONSE`s of a
//!   batch are all due at one µs, and on the benchmark's `saturate` 88 %
//!   of pops (86 % on `steady`) are followed by an entry of the same
//!   instant. There the heap holds 960 runs on average where a heap of
//!   entries held 35 k (51 k at most), timers included;
//! * `deadlines` holds the deadlines of every timer, client, node and
//!   verifier alike, as `(deadline, seq, slot)`: 24 bytes each, in a heap
//!   of their own, so they split no run. `slot` names the timer's slot in
//!   the armed-timer table, which holds `(seq, owner, timer)`, and a
//!   deadline is live only while its slot still carries its `seq`. The
//!   first slots are the clients' (the closed loop gives a client one
//!   `τ_m` at a time); any other timer takes one through an index by
//!   `(owner, timer)` and hands it back to a free list once cancelled or
//!   fired. Nearly every timer is cancelled long before it is due, and a
//!   cancelled deadline is not looked for, but it is not kept until due
//!   either: once the heap holds two per slot (plus a small slack), the
//!   next arming keeps only the live ones, at most one per slot. Each such
//!   pass is paid for by the at least as many armings since the last, and
//!   it removes only entries that would have popped as
//!   [`Fired::StaleTimer`]: every live timer still fires at its
//!   `(time, seq)`.

use crate::harness::{Delivery, EventKind};
use sbft_core::events::ProtocolTimer;
use sbft_types::{ClientId, ComponentId, IdMap, SimTime, TxnId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a node of a run stands for.
enum Queued {
    Event(EventKind),
    Delivery(Delivery),
    /// What a node on the free chain holds: nothing.
    Vacant,
}

/// One queued entry, or one link of the free chain.
struct Node {
    seq: u64,
    queued: Queued,
    /// The next node of the run (or of the free chain), [`END`] at its end.
    next: u32,
}

/// The `next` of a run's last node and of the free chain's last node.
const END: u32 = u32::MAX;

/// A run outside the heap: the open run or the serving one.
#[derive(Clone, Copy)]
struct Run {
    time: SimTime,
    head: u32,
    /// The last node, where the open run appends (the serving run's is
    /// never read).
    tail: u32,
}

/// A closed run in the heap: its time, its head's `seq`, its head.
type RunKey = (SimTime, u64, u32);

/// A queued deadline: its time, the `seq` of its arming, its timer's slot.
type DeadlineKey = (SimTime, u64, u32);

/// Deadlines the heap may hold beyond two per slot of the armed-timer
/// table before the next arming drops the stale ones.
const DEADLINE_SLACK: usize = 16;

/// One slot of the armed-timer table: the `seq` of the queued deadline
/// that fires it (0 while the slot is free) and the timer it fires.
#[derive(Clone, Copy)]
struct Armed {
    seq: u64,
    owner: ComponentId,
    timer: ProtocolTimer,
}

/// What [`EventQueue::pop`] found at the head of the queue.
pub(crate) enum Fired {
    /// A pushed event.
    Event(EventKind),
    /// A pushed delivery.
    Delivery(Delivery),
    /// An armed timer reached its deadline.
    Timer(ComponentId, ProtocolTimer),
    /// The deadline of a timer that was cancelled or re-armed since. It
    /// still marks a point of virtual time the run passed through.
    StaleTimer,
}

/// One popped queue entry.
pub(crate) struct Popped {
    pub(crate) time: SimTime,
    pub(crate) fired: Fired,
}

pub(crate) struct EventQueue {
    /// Every entry of every run, linked; `free` heads the chain of empty
    /// nodes.
    nodes: Vec<Node>,
    free: u32,
    /// Closed runs, least `(time, head seq)` first.
    runs: BinaryHeap<Reverse<RunKey>>,
    /// The run pushes for its instant append to, while it is queued.
    open: Option<Run>,
    /// The run pops take from: no other run holds an entry before its
    /// head.
    serving: Option<Run>,
    /// Every timer's deadline, live or stale, as `(deadline, seq, slot)`.
    deadlines: BinaryHeap<Reverse<DeadlineKey>>,
    /// The armed-timer table: a slot for each of the first `clients`
    /// clients' request timers, then slots the index hands out and the
    /// free list takes back.
    armed: Vec<Armed>,
    clients: usize,
    vacant: Vec<u32>,
    slots: IdMap<(ComponentId, ProtocolTimer), u32>,
    last_seq: u64,
}

/// Whether `a` pops before `b`, an empty source popping last.
fn earlier<K: Ord>(a: Option<K>, b: Option<K>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a < b,
        (a, _) => a.is_some(),
    }
}

impl EventQueue {
    /// An empty queue with a timer slot for each of `clients` clients, and
    /// room in the slab for the burst of their first requests at t = 0
    /// (grown by doubling, the slab overshoots it by up to half).
    pub(crate) fn new(clients: usize) -> Self {
        let unarmed = |c: u32| {
            let client = ClientId(c);
            Armed {
                seq: 0,
                owner: ComponentId::Client(client),
                timer: ProtocolTimer::ClientRequest(TxnId::new(client, 0)),
            }
        };
        EventQueue {
            nodes: Vec::with_capacity(clients),
            free: END,
            runs: BinaryHeap::new(),
            open: None,
            serving: None,
            deadlines: BinaryHeap::new(),
            armed: (0..clients as u32).map(unarmed).collect(),
            clients,
            vacant: Vec::new(),
            slots: IdMap::default(),
            last_seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.last_seq += 1;
        self.last_seq
    }

    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        self.enqueue(time, Queued::Event(kind));
    }

    pub(crate) fn push_delivery(&mut self, time: SimTime, delivery: Delivery) {
        self.enqueue(time, Queued::Delivery(delivery));
    }

    /// The heap key of a run headed by `head`.
    fn key(&self, time: SimTime, head: u32) -> RunKey {
        (time, self.nodes[head as usize].seq, head)
    }

    /// Queues an entry for `time` in a node off the free chain, if there
    /// is one, at the end of the open run if that run is `time`'s.
    fn enqueue(&mut self, time: SimTime, queued: Queued) {
        let node = Node {
            seq: self.next_seq(),
            queued,
            next: END,
        };
        let index = if self.free == END {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 queued")
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.nodes[index as usize], node).next;
            index
        };
        if let Some(serving) = self.serving.take_if(|serving| time < serving.time) {
            let key = self.key(serving.time, serving.head);
            self.runs.push(Reverse(key));
        }
        match self.open {
            Some(ref mut open) if open.time == time => {
                self.nodes[open.tail as usize].next = index;
                open.tail = index;
            }
            _ => {
                let opened = Run {
                    time,
                    head: index,
                    tail: index,
                };
                if let Some(closed) = self.open.replace(opened) {
                    let key = self.key(closed.time, closed.head);
                    self.runs.push(Reverse(key));
                }
            }
        }
    }

    /// The least queued run, taken out of the heap or out of the open
    /// slot, whichever holds it.
    fn next_run(&mut self) -> Option<Run> {
        let closed = self.runs.peek().map(|Reverse(key)| *key);
        let open = self.open.map(|run| self.key(run.time, run.head));
        if earlier(open, closed) {
            return self.open.take();
        }
        let Reverse((time, _, head)) = self.runs.pop()?;
        Some(Run {
            time,
            head,
            tail: END,
        })
    }

    /// The most deadlines the heap holds right after an arming: reaching
    /// it, the next arming drops the stale ones.
    pub(crate) fn deadline_bound(&self) -> usize {
        2 * self.armed.len() + DEADLINE_SLACK
    }

    /// The slot kept for `owner`'s `timer` if it is a client's request
    /// timer: its client's.
    fn client_slot(&self, owner: ComponentId, timer: ProtocolTimer) -> Option<u32> {
        let ProtocolTimer::ClientRequest(TxnId { client, .. }) = timer else {
            return None;
        };
        (owner == ComponentId::Client(client) && (client.0 as usize) < self.clients)
            .then_some(client.0)
    }

    /// Arms (or re-arms) `owner`'s `timer` to fire at `deadline`.
    pub(crate) fn arm(&mut self, owner: ComponentId, timer: ProtocolTimer, deadline: SimTime) {
        let seq = self.next_seq();
        let slot = self.client_slot(owner, timer).unwrap_or_else(|| {
            *self.slots.entry((owner, timer)).or_insert_with(|| {
                self.vacant.pop().unwrap_or_else(|| {
                    self.armed.push(Armed { seq, owner, timer });
                    u32::try_from(self.armed.len() - 1).expect("fewer than 2^32 timers armed")
                })
            })
        });
        self.armed[slot as usize] = Armed { seq, owner, timer };
        if self.deadlines.len() >= self.deadline_bound() {
            let armed = &self.armed;
            self.deadlines
                .retain(|Reverse((_, seq, slot))| armed[*slot as usize].seq == *seq);
        }
        self.deadlines.push(Reverse((deadline, seq, slot)));
    }

    /// Cancels `owner`'s `timer` if it is armed.
    pub(crate) fn cancel(&mut self, owner: ComponentId, timer: ProtocolTimer) {
        let slot = self.client_slot(owner, timer).or_else(|| {
            let slot = self.slots.remove(&(owner, timer))?;
            self.vacant.push(slot);
            Some(slot)
        });
        if let Some(armed) = slot.map(|slot| &mut self.armed[slot as usize]) {
            if armed.timer == timer {
                armed.seq = 0;
            }
        }
    }

    /// Removes and returns the entry with the smallest `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Popped> {
        if self.serving.is_none() {
            self.serving = self.next_run();
        }
        let run = self
            .serving
            .map(|run| (run.time, self.nodes[run.head as usize].seq));
        let deadline = self
            .deadlines
            .peek()
            .map(|Reverse((time, seq, _))| (*time, *seq));
        if earlier(deadline, run) {
            let Reverse((time, seq, slot)) = self.deadlines.pop()?;
            let armed = self.armed[slot as usize];
            let fired = if armed.seq == seq {
                self.cancel(armed.owner, armed.timer);
                Fired::Timer(armed.owner, armed.timer)
            } else {
                Fired::StaleTimer
            };
            return Some(Popped { time, fired });
        }
        let run = self.serving.as_mut()?;
        let (time, index) = (run.time, run.head);
        let node = &mut self.nodes[index as usize];
        let queued = std::mem::replace(&mut node.queued, Queued::Vacant);
        if node.next == END {
            self.serving = None;
        } else {
            run.head = node.next;
        }
        node.next = self.free;
        self.free = index;
        let fired = match queued {
            Queued::Event(kind) => Fired::Event(kind),
            Queued::Delivery(delivery) => Fired::Delivery(delivery),
            Queued::Vacant => unreachable!("a queued node holds an entry"),
        };
        Some(Popped { time, fired })
    }

    /// Entries still queued, stale deadlines included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.runs().1 + self.deadlines.len()
    }

    /// Bytes the queue holds for its entries: the slab (every node it has
    /// grown to, free ones included) and the two heaps.
    #[cfg(test)]
    pub(crate) fn queued_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.runs.len() * std::mem::size_of::<Reverse<RunKey>>()
            + self.deadlines.len() * std::mem::size_of::<Reverse<DeadlineKey>>()
    }

    /// Runs still queued (closed, open and serving) and the entries they
    /// hold.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> (usize, usize) {
        let mut free = 0;
        let mut node = self.free;
        while node != END {
            free += 1;
            node = self.nodes[node as usize].next;
        }
        let runs = self.runs.len()
            + usize::from(self.open.is_some())
            + usize::from(self.serving.is_some());
        (runs, self.nodes.len() - free)
    }

    /// The request whose timer `client` has armed, if any.
    #[cfg(test)]
    pub(crate) fn armed_request(&self, client: ClientId) -> Option<TxnId> {
        let owner = ComponentId::Client(client);
        self.armed.iter().find_map(|armed| match armed.timer {
            ProtocolTimer::ClientRequest(txn) if armed.seq != 0 && armed.owner == owner => {
                Some(txn)
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbft_core::events::RecoverySubject;
    use sbft_types::{NodeId, SeqNum, SimDuration};
    use std::collections::BTreeMap;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A pushed event that can be told apart when it is popped.
    fn marker(n: usize) -> EventKind {
        EventKind::BatchTick { node: n }
    }

    #[test]
    fn queued_entries_are_small() {
        // A queued delivery or event is one node: `seq`, the message in
        // flight (or event) inline, and the link to the next node of its
        // run. A delivery took 192 bytes while it was a 32-byte heap entry
        // naming a 160-byte slab slot. A deadline is a 24-byte heap entry,
        // an armed timer one slot of the table (a client's at rest too).
        assert!(std::mem::size_of::<Node>() <= 176);
        assert!(std::mem::size_of::<Reverse<RunKey>>() <= 24);
        assert!(std::mem::size_of::<Reverse<DeadlineKey>>() <= 24);
        assert!(std::mem::size_of::<Armed>() <= 48);
        // What a role pushes per send and what a node holds per message
        // in flight. Both were 304 bytes while `ERROR` carried its client
        // request inline and `EXECUTE` / `VERIFY` sat in the enum.
        assert!(std::mem::size_of::<sbft_core::events::Action>() <= 192);
        assert!(std::mem::size_of::<Queued>() <= 160);
        // What a client costs at rest, all of it inline (296 bytes plus two
        // heap blocks while its crypto handle carried MAC schedules and its
        // outstanding requests sat in a `Vec`). The handle's own size is
        // pinned in `sbft-crypto`, a suppressed id's in the shim's tests.
        assert!(std::mem::size_of::<sbft_core::ClientRole>() <= 192);
    }

    /// What a pop showed, reduced to what a client's slot and a slot from
    /// the index share.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Fired(u64),
        Stale,
    }

    /// Arms, re-arms, cancels and fires one timer per request in `owner`'s
    /// slot and reports every pop.
    fn timer_script(owner: ComponentId) -> Vec<(SimTime, Seen)> {
        let txn = |n| ProtocolTimer::ClientRequest(TxnId::new(ClientId(3), n));
        let mut q = EventQueue::new(8);
        q.arm(owner, txn(0), at(100)); // cancelled before it is due
        q.cancel(owner, txn(0));
        q.arm(owner, txn(1), at(50)); // fires
        let mut seen = Vec::new();
        let mut pop = |q: &mut EventQueue| {
            let popped = q.pop().expect("an entry is queued");
            seen.push((
                popped.time,
                match popped.fired {
                    Fired::Timer(o, ProtocolTimer::ClientRequest(t)) => {
                        assert_eq!(o, owner);
                        Seen::Fired(t.counter)
                    }
                    Fired::StaleTimer => Seen::Stale,
                    _ => panic!("only timers were queued"),
                },
            ));
        };
        pop(&mut q); // txn 1 at 50
        q.arm(owner, txn(1), at(150)); // the retry of the same request ...
        q.arm(owner, txn(1), at(120)); // ... re-armed: the first arming is dead
        q.cancel(owner, txn(0)); // cancelling an answered request's timer: nothing
        pop(&mut q); // stale txn 0 at 100
        pop(&mut q); // txn 1 at 120
        q.cancel(owner, txn(1)); // fired already: nothing
        q.arm(owner, txn(2), at(130));
        q.cancel(owner, txn(2));
        pop(&mut q); // stale txn 2 at 130
        pop(&mut q); // stale txn 1 at 150
        assert!(q.pop().is_none());
        seen
    }

    #[test]
    fn a_client_timer_behaves_in_its_slot_as_in_the_table() {
        let through_slot = timer_script(ComponentId::Client(ClientId(3)));
        // The same timers owned by a node take a slot from the index.
        let through_table = timer_script(ComponentId::Node(NodeId(3)));
        assert_eq!(through_slot, through_table);
        assert_eq!(
            through_slot,
            vec![
                (at(50), Seen::Fired(1)),
                (at(100), Seen::Stale),
                (at(120), Seen::Fired(1)),
                (at(130), Seen::Stale),
                (at(150), Seen::Stale),
            ]
        );
    }

    /// A closed loop of `clients` clients over 200 rounds, 10 µs apart:
    /// every client without a request out arms one; one in five of those
    /// goes unanswered and fires 25 µs later, the others are answered
    /// (cancelled) at once. `owner` picks whose slot the timers take.
    /// Returns every timer that fired, as `(time, client, counter)`, and
    /// the most deadlines queued after any arming, which never exceeds
    /// the queue's bound.
    fn closed_loop(
        clients: u32,
        owner: impl Fn(u32) -> ComponentId,
    ) -> (Vec<(SimTime, u32, u64)>, usize) {
        let mut q = EventQueue::new(clients as usize);
        let mut fired = Vec::new();
        let mut outstanding = vec![false; clients as usize];
        let mut most_deadlines = 0;
        let mut pop = |q: &mut EventQueue, outstanding: &mut [bool]| {
            let popped = q.pop()?;
            match popped.fired {
                Fired::Timer(_, ProtocolTimer::ClientRequest(txn)) => {
                    outstanding[txn.client.0 as usize] = false;
                    fired.push((popped.time, txn.client.0, txn.counter));
                }
                Fired::StaleTimer => {}
                Fired::Event(_) => return None,
                _ => panic!("only timers and markers were queued"),
            }
            Some(())
        };
        for round in 0..200u64 {
            let now = round * 10;
            // Everything due before this round, up to a marker at `now`.
            q.push(at(now), marker(0));
            while pop(&mut q, &mut outstanding).is_some() {}
            for c in 0..clients {
                if outstanding[c as usize] {
                    continue;
                }
                let timer = ProtocolTimer::ClientRequest(TxnId::new(ClientId(c), round));
                if (round + u64::from(c)) % 5 == 0 {
                    q.arm(owner(c), timer, at(now + 25));
                    outstanding[c as usize] = true;
                } else {
                    q.arm(owner(c), timer, at(now + 2_000));
                    q.cancel(owner(c), timer);
                }
                let deadlines = q.len() - q.runs().1;
                assert!(deadlines <= q.deadline_bound(), "{deadlines} deadlines");
                most_deadlines = most_deadlines.max(deadlines);
            }
        }
        while pop(&mut q, &mut outstanding).is_some() {}
        assert_eq!(q.len(), 0);
        // 1 600 armings, never more than one timer a client at once: the
        // free list hands the index's slots out again.
        assert!(
            q.armed.len() <= 2 * clients as usize,
            "{} slots",
            q.armed.len()
        );
        (fired, most_deadlines)
    }

    #[test]
    fn answered_requests_leave_a_bounded_number_of_deadlines() {
        let clients = 8;
        let (through_slot, client_deadlines) =
            closed_loop(clients, |c| ComponentId::Client(ClientId(c)));
        // Node timers go through the index and obey the same bound: they
        // fire what the clients' slots fired.
        let (through_table, node_deadlines) =
            closed_loop(clients, |c| ComponentId::Node(NodeId(c)));
        assert_eq!(through_slot, through_table);
        // 200 rounds × 8 clients, a fifth of them unanswered for 3 rounds.
        assert!(
            through_slot.len() > 200,
            "{} timers fired",
            through_slot.len()
        );
        assert_eq!(
            EventQueue::new(clients as usize).deadline_bound(),
            2 * clients as usize + DEADLINE_SLACK
        );
        // Without the drop, the 2 ms deadlines of 200 rounds would pile up.
        assert!(client_deadlines > clients as usize);
        assert!(node_deadlines > clients as usize);
    }

    #[test]
    fn the_bound_grows_with_the_timers_armed_at_once() {
        // No client slots and 100 verifier timers armed at once, none
        // stale: the bound counts the table's slots, so it stays above the
        // heap however many timers are live.
        let mut q = EventQueue::new(0);
        for n in 0..100 {
            q.arm(
                ComponentId::Verifier,
                ProtocolTimer::VerifierAbort(SeqNum(n)),
                at(n),
            );
            assert!(q.len() <= q.deadline_bound(), "{} deadlines", q.len());
        }
        assert_eq!((q.len(), q.armed.len()), (100, 100));
    }

    #[test]
    fn an_unarmed_slot_reports_no_request() {
        let mut q = EventQueue::new(2);
        let client = ClientId(1);
        let txn = TxnId::new(client, 9);
        assert_eq!(q.armed_request(client), None);
        q.arm(
            ComponentId::Client(client),
            ProtocolTimer::ClientRequest(txn),
            at(5),
        );
        assert_eq!(q.armed_request(client), Some(txn));
        assert_eq!((q.len(), q.runs().1), (1, 0));
        q.cancel(
            ComponentId::Client(client),
            ProtocolTimer::ClientRequest(txn),
        );
        assert_eq!(q.armed_request(client), None);
        // A client beyond the slots the queue was built with takes one from
        // the index; cancelled, it goes back to the free list.
        let far = ClientId(7);
        let far_timer = ProtocolTimer::ClientRequest(TxnId::new(far, 0));
        q.arm(ComponentId::Client(far), far_timer, at(6));
        assert_eq!(q.armed_request(far), Some(TxnId::new(far, 0)));
        assert_eq!(q.armed.len(), 3);
        q.cancel(ComponentId::Client(far), far_timer);
        assert_eq!(q.armed_request(far), None);
        q.arm(
            ComponentId::Verifier,
            ProtocolTimer::VerifierAbort(SeqNum(1)),
            at(7),
        );
        assert_eq!(q.armed.len(), 3);
    }

    /// One step of a random schedule.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Push `count` delivery-like events due `delay` after the clock.
        Push {
            delay: u64,
            count: u64,
        },
        /// Arm timer `counter` of `owner` (see [`timer_of`]) `delay` after
        /// the clock.
        Arm {
            owner: u32,
            counter: u64,
            delay: u64,
        },
        Cancel {
            owner: u32,
            counter: u64,
        },
        Pop,
    }

    /// The delays of pushes and arms: few, so that entries meet at
    /// instants as deliveries of one batch do, 0 among them, so that
    /// entries land at the instant being served.
    const DELAYS: [u64; 6] = [0, 1, 2, 5, 13, 34];

    fn delay() -> impl Strategy<Value = u64> {
        (0..DELAYS.len()).prop_map(|i| DELAYS[i])
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (delay(), 1u64..6).prop_map(|(delay, count)| Step::Push { delay, count }),
            (0u32..6, 0u64..3, delay()).prop_map(|(owner, counter, delay)| Step::Arm {
                owner,
                counter,
                delay
            }),
            (0u32..6, 0u64..3).prop_map(|(owner, counter)| Step::Cancel { owner, counter }),
            (0u8..2).prop_map(|_| Step::Pop),
        ]
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(step(), 1..400)
    }

    /// The clients with a slot of their own in [`check_order`]'s queue.
    const CLIENTS: u32 = 2;

    /// Timer `counter` of `owner`: the request timer of a client with a
    /// slot of its own (`owner < 2`) or without one (2), a node's
    /// retransmit timer (3), or a verifier abort timer (4 and 5).
    fn timer_of(owner: u32, counter: u64) -> (ComponentId, ProtocolTimer) {
        match owner {
            0..=2 => {
                let client = ClientId(owner);
                (
                    ComponentId::Client(client),
                    ProtocolTimer::ClientRequest(TxnId::new(client, counter)),
                )
            }
            3 => (
                ComponentId::Node(NodeId(1)),
                ProtocolTimer::Retransmit(RecoverySubject::Seq(SeqNum(counter))),
            ),
            _ => (
                ComponentId::Verifier,
                ProtocolTimer::VerifierAbort(SeqNum(u64::from(owner) * 8 + counter)),
            ),
        }
    }

    /// What the model expects an entry to pop as.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Expected {
        Event(usize),
        Timer(ComponentId, ProtocolTimer),
    }

    /// The deadlines the model holds.
    fn deadlines(model: &BTreeMap<(SimTime, u64), Expected>) -> usize {
        model
            .values()
            .filter(|queued| matches!(queued, Expected::Timer(..)))
            .count()
    }

    /// Whether the model holds a pushed event due at `time`.
    fn holds_event_at(model: &BTreeMap<(SimTime, u64), Expected>, time: SimTime) -> bool {
        model
            .range((time, 0)..=(time, u64::MAX))
            .any(|(_, queued)| matches!(queued, Expected::Event(_)))
    }

    /// The shapes of a schedule that make and break runs, by whether a
    /// schedule showed them.
    const SHAPES: [&str; 5] = [
        "a push due at once",
        "a burst of pushes at one instant",
        "a push at the instant being served",
        "an arm at the instant of the open run",
        "a second run of an instant, another instant pushed between",
    ];

    /// Runs `steps` against the queue and a model of it: entries leave in
    /// strict `(time, seq)` order — `seq` counting pushes and arms alike —
    /// a timer fires only if it is still the latest arming of its key, and
    /// everything else shows up as a stale deadline at its place in the
    /// order, bar the stale deadlines, whatever their owner, an arming past
    /// the bound dropped. The table holds no more slots than the clients'
    /// and the most timers armed at once through the index. Returns which
    /// of [`SHAPES`] the schedule showed.
    fn check_order(steps: &[Step]) -> [bool; 5] {
        let mut q = EventQueue::new(CLIENTS as usize);
        // (time, seq) -> what was queued; the live arming of each key.
        let mut model: BTreeMap<(SimTime, u64), Expected> = BTreeMap::new();
        let mut live: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut most_indexed = 0;
        let mut seq = 0u64;
        let mut clock = 0u64;
        // The instant of the last pop and of the last push.
        let mut served = None;
        let mut pushed = None;
        let mut shapes = [false; 5];
        let check_pop = |q: &mut EventQueue,
                         model: &mut BTreeMap<(SimTime, u64), Expected>,
                         live: &mut BTreeMap<(u32, u64), u64>,
                         clock: &mut u64| {
            let popped = q.pop();
            let Some(((time, seq), expected)) = model.pop_first() else {
                assert!(popped.is_none(), "the model is empty");
                return None;
            };
            let popped = popped.expect("the model holds an entry");
            assert_eq!(popped.time, time);
            *clock = time.as_micros();
            match (expected, popped.fired) {
                (Expected::Event(n), Fired::Event(EventKind::BatchTick { node })) => {
                    assert_eq!(node, n);
                }
                (Expected::Timer(owner, timer), fired) => {
                    let key = live.iter().find(|(_, s)| **s == seq).map(|(k, _)| *k);
                    match (key, fired) {
                        (Some(key), Fired::Timer(o, t)) => {
                            assert_eq!((o, t), (owner, timer));
                            live.remove(&key);
                        }
                        (None, Fired::StaleTimer) => {}
                        (key, _) => panic!("seq {seq}: live as {key:?}, popped otherwise"),
                    }
                }
                (expected, _) => panic!("seq {seq}: expected {expected:?}"),
            }
            Some(time)
        };
        for &step in steps {
            match step {
                Step::Push { delay, count } => {
                    let time = at(clock + delay);
                    shapes[0] |= delay == 0;
                    shapes[1] |= count > 1;
                    shapes[2] |= served == Some(time) && holds_event_at(&model, time);
                    shapes[4] |= pushed != Some(time) && holds_event_at(&model, time);
                    pushed = Some(time);
                    for _ in 0..count {
                        seq += 1;
                        q.push(time, marker(seq as usize));
                        model.insert((time, seq), Expected::Event(seq as usize));
                    }
                }
                Step::Arm {
                    owner,
                    counter,
                    delay,
                } => {
                    seq += 1;
                    let time = at(clock + delay);
                    shapes[3] |= pushed == Some(time) && holds_event_at(&model, time);
                    let (component, timer) = timer_of(owner, counter);
                    q.arm(component, timer, time);
                    if owner < CLIENTS {
                        // A client with a slot of its own holds one
                        // request in it: arming replaces whatever it held.
                        live.retain(|(o, _), _| *o != owner);
                    }
                    live.insert((owner, counter), seq);
                    // Past the bound, the stale deadlines leave the queue.
                    if deadlines(&model) >= q.deadline_bound() {
                        model.retain(|(_, s), queued| {
                            matches!(queued, Expected::Event(_)) || live.values().any(|l| l == s)
                        });
                    }
                    model.insert((time, seq), Expected::Timer(component, timer));
                    let indexed = live.keys().filter(|(o, _)| *o >= CLIENTS).count();
                    most_indexed = most_indexed.max(indexed);
                    assert!(q.armed.len() <= CLIENTS as usize + most_indexed);
                    let queued = deadlines(&model);
                    assert_eq!(q.len() - q.runs().1, queued);
                    assert!(queued <= q.deadline_bound());
                }
                Step::Cancel { owner, counter } => {
                    let (component, timer) = timer_of(owner, counter);
                    q.cancel(component, timer);
                    live.remove(&(owner, counter));
                }
                Step::Pop => {
                    if let Some(time) = check_pop(&mut q, &mut model, &mut live, &mut clock) {
                        served = Some(time);
                    }
                }
            }
        }
        while check_pop(&mut q, &mut model, &mut live, &mut clock).is_some() {}
        assert!(q.pop().is_none());
        assert_eq!(q.runs(), (0, 0));
        shapes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the interleaving of deliveries, arms, cancels and
        /// pops, entries leave in `(time, seq)` order (see
        /// [`check_order`]).
        #[test]
        fn pops_follow_time_then_arming_order(steps in steps()) {
            check_order(&steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1))]

        /// Most schedules drawn for the order property show every shape
        /// that makes or breaks a run, so the property covers them.
        #[test]
        fn order_schedules_form_and_split_runs(
            schedules in proptest::collection::vec(steps(), 256..257),
        ) {
            let mut shown = [0usize; 5];
            for steps in &schedules {
                for (n, showed) in shown.iter_mut().zip(check_order(steps)) {
                    *n += usize::from(showed);
                }
            }
            for (shape, n) in SHAPES.iter().zip(shown) {
                prop_assert!(
                    4 * n >= 3 * schedules.len(),
                    "{shape}: {n} of {} schedules",
                    schedules.len()
                );
            }
        }
    }
}
