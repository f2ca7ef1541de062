//! The simulator's pending events and armed timers.
//!
//! Everything that happens at a point of virtual time is popped from an
//! [`EventQueue`] in strict `(time, seq)` order, `seq` being the order in
//! which events were pushed and timers armed. Two heaps share that one
//! sequence counter:
//!
//! * `events` holds deliveries, executor runs, ticks, crashes and the
//!   timers of shim nodes and the verifier (a handful per batch, looked up
//!   through two small tables). A queued delivery is an index into
//!   `deliveries`, a slab the queue owns: [`EventQueue::push_delivery`]
//!   fills a slot, exactly one heap entry names it, and popping that
//!   entry empties the slot onto the free list — so a message in flight
//!   costs no allocation once the slab has grown to the run's peak;
//! * `client_deadlines` holds the client timers `τ_m`. The closed loop
//!   gives every client one request and so one timer at a time: the armed
//!   timer lives in a slot indexed by client, arming and cancelling touch
//!   nothing else, and a queued deadline is live only while its client's
//!   slot still carries its `seq`. Nearly all of them are cancelled long
//!   before they are due; kept apart, they cost the deliveries no heap
//!   depth, and pushing deadlines that only grow never sifts. A cancelled
//!   deadline is not looked for, but it is not kept until it is due
//!   either: once the heap holds more than two per client (plus a small
//!   slack), the next arming keeps only the live ones, at most one per
//!   client. Each such pass is paid for by the at least `clients` armings
//!   since the last, and it removes only entries that would have popped
//!   as [`Fired::StaleTimer`]: every live timer still fires at its
//!   `(time, seq)`.

use crate::harness::{Delivery, EventKind};
use sbft_core::events::ProtocolTimer;
use sbft_types::{ClientId, ComponentId, IdMap, SimTime, TxnId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What an entry of the `events` heap stands for.
enum Queued {
    Event(EventKind),
    /// The message in this slot of the delivery slab arrives.
    Delivery(u32),
    /// A node or verifier timer armed under the entry's `seq` expires,
    /// unless it was cancelled or re-armed in the meantime.
    Timer,
}

struct Event {
    time: SimTime,
    seq: u64,
    queued: Queued,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Client deadlines the heap may hold beyond two per client before the
/// next arming drops the stale ones.
const DEADLINE_SLACK: usize = 16;

/// The armed timer of one client: the `seq` its queued deadline carries
/// (0 while unarmed) and the counter of the request it guards.
#[derive(Clone, Copy, Default)]
struct ClientTimer {
    seq: u64,
    counter: u64,
}

/// What [`EventQueue::pop`] found at the head of the queue.
pub(crate) enum Fired {
    /// A pushed event.
    Event(EventKind),
    /// A pushed delivery, taken out of its slab slot.
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
    events: BinaryHeap<Reverse<Event>>,
    /// Messages in flight, by slot; `free_slots` lists the empty ones.
    deliveries: Vec<Option<Delivery>>,
    free_slots: Vec<u32>,
    client_deadlines: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    client_timers: Vec<ClientTimer>,
    /// Armed node and verifier timers, by the `seq` of their queued
    /// event, and the reverse index cancelling goes through. An entry
    /// leaves both when its timer is cancelled, re-armed or fired.
    timers: IdMap<u64, (ComponentId, ProtocolTimer)>,
    timer_seq: IdMap<(ComponentId, ProtocolTimer), u64>,
    last_seq: u64,
}

impl EventQueue {
    /// An empty queue with timer slots for `clients` clients, and room in
    /// the delivery slab for the burst of their first requests at t = 0
    /// (grown by doubling, the slab overshoots it by up to half).
    pub(crate) fn new(clients: usize) -> Self {
        EventQueue {
            events: BinaryHeap::new(),
            deliveries: Vec::with_capacity(clients),
            free_slots: Vec::new(),
            client_deadlines: BinaryHeap::new(),
            client_timers: vec![ClientTimer::default(); clients],
            timers: IdMap::default(),
            timer_seq: IdMap::default(),
            last_seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.last_seq += 1;
        self.last_seq
    }

    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.events.push(Reverse(Event {
            time,
            seq,
            queued: Queued::Event(kind),
        }));
    }

    /// Queues `delivery` for `time`, in a free slab slot if there is one.
    pub(crate) fn push_delivery(&mut self, time: SimTime, delivery: Delivery) {
        let seq = self.next_seq();
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.deliveries[slot as usize] = Some(delivery);
                slot
            }
            None => {
                self.deliveries.push(Some(delivery));
                u32::try_from(self.deliveries.len() - 1).expect("fewer than 2^32 in flight")
            }
        };
        self.events.push(Reverse(Event {
            time,
            seq,
            queued: Queued::Delivery(slot),
        }));
    }

    /// The most client deadlines the heap holds right after an arming:
    /// reaching it, the next arming drops the stale ones.
    pub(crate) fn deadline_bound(&self) -> usize {
        2 * self.client_timers.len() + DEADLINE_SLACK
    }

    /// Arms (or re-arms) `owner`'s `timer` to fire at `deadline`.
    pub(crate) fn arm(&mut self, owner: ComponentId, timer: ProtocolTimer, deadline: SimTime) {
        let seq = self.next_seq();
        if let (ComponentId::Client(client), ProtocolTimer::ClientRequest(txn)) = (owner, timer) {
            if txn.client == client {
                let slot = client.0 as usize;
                if slot >= self.client_timers.len() {
                    self.client_timers.resize(slot + 1, ClientTimer::default());
                }
                self.client_timers[slot] = ClientTimer {
                    seq,
                    counter: txn.counter,
                };
                if self.client_deadlines.len() >= self.deadline_bound() {
                    let timers = &self.client_timers;
                    self.client_deadlines
                        .retain(|Reverse((_, seq, client))| timers[*client as usize].seq == *seq);
                }
                self.client_deadlines
                    .push(Reverse((deadline, seq, client.0)));
                return;
            }
        }
        if let Some(superseded) = self.timer_seq.insert((owner, timer), seq) {
            self.timers.remove(&superseded);
        }
        self.timers.insert(seq, (owner, timer));
        self.events.push(Reverse(Event {
            time: deadline,
            seq,
            queued: Queued::Timer,
        }));
    }

    /// Cancels `owner`'s `timer` if it is armed.
    pub(crate) fn cancel(&mut self, owner: ComponentId, timer: ProtocolTimer) {
        if let (ComponentId::Client(client), ProtocolTimer::ClientRequest(txn)) = (owner, timer) {
            if txn.client == client {
                if let Some(slot) = self.client_timers.get_mut(client.0 as usize) {
                    if slot.counter == txn.counter {
                        slot.seq = 0;
                    }
                }
                return;
            }
        }
        if let Some(seq) = self.timer_seq.remove(&(owner, timer)) {
            self.timers.remove(&seq);
        }
    }

    /// Removes and returns the entry with the smallest `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Popped> {
        let event = self.events.peek().map(|Reverse(e)| (e.time, e.seq));
        let deadline = self
            .client_deadlines
            .peek()
            .map(|Reverse((time, seq, _))| (*time, *seq));
        let deadline_first = match (event, deadline) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(event), Some(deadline)) => deadline < event,
        };
        if deadline_first {
            let Reverse((time, seq, client)) = self.client_deadlines.pop()?;
            let slot = &mut self.client_timers[client as usize];
            let fired = if slot.seq == seq {
                slot.seq = 0;
                let client = ClientId(client);
                Fired::Timer(
                    ComponentId::Client(client),
                    ProtocolTimer::ClientRequest(TxnId::new(client, slot.counter)),
                )
            } else {
                Fired::StaleTimer
            };
            return Some(Popped { time, fired });
        }
        let Reverse(Event { time, seq, queued }) = self.events.pop()?;
        let fired = match queued {
            Queued::Event(kind) => Fired::Event(kind),
            Queued::Delivery(slot) => {
                self.free_slots.push(slot);
                Fired::Delivery(
                    self.deliveries[slot as usize]
                        .take()
                        .expect("a queued delivery owns its slot"),
                )
            }
            Queued::Timer => match self.timers.remove(&seq) {
                Some((owner, timer)) => {
                    self.timer_seq.remove(&(owner, timer));
                    Fired::Timer(owner, timer)
                }
                None => Fired::StaleTimer,
            },
        };
        Some(Popped { time, fired })
    }

    /// Entries still queued, stale deadlines included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len() + self.client_deadlines.len()
    }

    /// Bytes the queued entries occupy.
    #[cfg(test)]
    pub(crate) fn queued_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<Reverse<Event>>()
            + self.client_deadlines.len() * std::mem::size_of::<Reverse<(SimTime, u64, u32)>>()
    }

    /// Entries queued outside the client-deadline heap.
    #[cfg(test)]
    pub(crate) fn events_len(&self) -> usize {
        self.events.len()
    }

    /// The request whose timer `client` has armed, if any.
    #[cfg(test)]
    pub(crate) fn armed_request(&self, client: ClientId) -> Option<TxnId> {
        self.client_timers
            .get(client.0 as usize)
            .filter(|t| t.seq != 0)
            .map(|t| TxnId::new(client, t.counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        assert!(std::mem::size_of::<Reverse<Event>>() <= 32);
        assert!(std::mem::size_of::<Reverse<(SimTime, u64, u32)>>() <= 24);
        // What a role pushes per send and what a slab slot holds per
        // message in flight. Both were 304 bytes while `ERROR` carried its
        // client request inline and `EXECUTE` / `VERIFY` sat in the enum.
        assert!(std::mem::size_of::<sbft_core::events::Action>() <= 192);
        assert!(std::mem::size_of::<Option<Delivery>>() <= 184);
        // What a client costs at rest, all of it inline (296 bytes plus two
        // heap blocks while its crypto handle carried MAC schedules and its
        // outstanding requests sat in a `Vec`). The handle's own size is
        // pinned in `sbft-crypto`, a suppressed id's in the shim's tests.
        assert!(std::mem::size_of::<sbft_core::ClientRole>() <= 192);
    }

    /// What a pop showed, reduced to what the two timer paths share.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Fired(u64),
        Stale,
    }

    /// Arms, re-arms, cancels and fires one timer per request through
    /// `owner`'s path and reports every pop.
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
        // The same timers owned by a node take the table path.
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
    /// (cancelled) at once. `owner` picks whose path the timers take.
    /// Returns every timer that fired, as `(time, client, counter)`, and
    /// the most client deadlines queued after any arming.
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
                most_deadlines = most_deadlines.max(q.len() - q.events_len());
            }
        }
        while pop(&mut q, &mut outstanding).is_some() {}
        assert_eq!(q.len(), 0);
        (fired, most_deadlines)
    }

    #[test]
    fn answered_requests_leave_a_bounded_number_of_deadlines() {
        let clients = 8;
        let (through_slot, most_deadlines) =
            closed_loop(clients, |c| ComponentId::Client(ClientId(c)));
        // The table path keeps every cancelled timer queued until it is
        // due: it fires what the slot path fired before stale deadlines
        // were dropped.
        let (through_table, table_deadlines) =
            closed_loop(clients, |c| ComponentId::Node(NodeId(c)));
        assert_eq!(table_deadlines, 0);
        assert_eq!(through_slot, through_table);
        // 200 rounds × 8 clients, a fifth of them unanswered for 3 rounds.
        assert!(
            through_slot.len() > 200,
            "{} timers fired",
            through_slot.len()
        );
        let bound = EventQueue::new(clients as usize).deadline_bound();
        assert_eq!(bound, 2 * clients as usize + DEADLINE_SLACK);
        assert!(
            most_deadlines <= bound,
            "{most_deadlines} client deadlines queued, bound {bound}"
        );
        // Without the drop, the 2 ms deadlines of 200 rounds would pile up.
        assert!(most_deadlines > clients as usize);
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
        assert_eq!((q.len(), q.events_len()), (1, 0));
        q.cancel(
            ComponentId::Client(client),
            ProtocolTimer::ClientRequest(txn),
        );
        assert_eq!(q.armed_request(client), None);
        // A client beyond the slots the queue was built with gets one.
        let far = ClientId(7);
        q.arm(
            ComponentId::Client(far),
            ProtocolTimer::ClientRequest(TxnId::new(far, 0)),
            at(6),
        );
        assert_eq!(q.armed_request(far), Some(TxnId::new(far, 0)));
    }

    /// One step of a random schedule.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Push a delivery-like event due `delay` after the clock.
        Push {
            delay: u64,
        },
        /// Arm the timer of request `counter` of client `owner` (or, for
        /// `owner >= 4`, a verifier timer) `delay` after the clock.
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

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..40).prop_map(|delay| Step::Push { delay }),
            (0u32..6, 0u64..3, 0u64..40).prop_map(|(owner, counter, delay)| Step::Arm {
                owner,
                counter,
                delay
            }),
            (0u32..6, 0u64..3).prop_map(|(owner, counter)| Step::Cancel { owner, counter }),
            (0u8..2).prop_map(|_| Step::Pop),
        ]
    }

    fn timer_of(owner: u32, counter: u64) -> (ComponentId, ProtocolTimer) {
        if owner < 4 {
            let client = ClientId(owner);
            (
                ComponentId::Client(client),
                ProtocolTimer::ClientRequest(TxnId::new(client, counter)),
            )
        } else {
            (
                ComponentId::Verifier,
                ProtocolTimer::VerifierAbort(SeqNum(u64::from(owner) * 8 + counter)),
            )
        }
    }

    /// What the model expects an entry to pop as.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Expected {
        Event(usize),
        Timer(ComponentId, ProtocolTimer),
    }

    fn is_client(queued: &Expected) -> bool {
        matches!(queued, Expected::Timer(ComponentId::Client(_), _))
    }

    /// The client deadlines the model holds.
    fn client_deadlines(model: &BTreeMap<(SimTime, u64), Expected>) -> usize {
        model.values().filter(|queued| is_client(queued)).count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the interleaving of deliveries, arms, cancels and
        /// pops, entries leave in strict `(time, seq)` order — `seq`
        /// counting pushes and arms alike — a timer fires only if it is
        /// still the latest arming of its key, and everything else shows
        /// up as a stale deadline at its place in the order — bar the
        /// cancelled client deadlines an arming past the bound dropped.
        #[test]
        fn pops_follow_time_then_arming_order(
            steps in proptest::collection::vec(step(), 1..400),
        ) {
            let mut q = EventQueue::new(4);
            // (time, seq) -> what was queued; the live arming of each key.
            let mut model: BTreeMap<(SimTime, u64), Expected> = BTreeMap::new();
            let mut live: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut clock = 0u64;
            let check_pop = |q: &mut EventQueue,
                                 model: &mut BTreeMap<(SimTime, u64), Expected>,
                                 live: &mut BTreeMap<(u32, u64), u64>,
                                 clock: &mut u64| {
                let popped = q.pop();
                let Some(((time, seq), expected)) = model.pop_first() else {
                    assert!(popped.is_none(), "the model is empty");
                    return;
                };
                let popped = popped.expect("the model holds an entry");
                assert_eq!(popped.time, time);
                *clock = time.as_micros();
                match (expected, popped.fired) {
                    (Expected::Event(n), Fired::Event(EventKind::BatchTick { node })) => {
                        assert_eq!(node, n);
                    }
                    (Expected::Timer(owner, timer), fired) => {
                        let key = live
                            .iter()
                            .find(|(_, s)| **s == seq)
                            .map(|(k, _)| *k);
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
            };
            for step in steps {
                match step {
                    Step::Push { delay } => {
                        seq += 1;
                        q.push(at(clock + delay), marker(seq as usize));
                        model.insert((at(clock + delay), seq), Expected::Event(seq as usize));
                    }
                    Step::Arm { owner, counter, delay } => {
                        seq += 1;
                        let (component, timer) = timer_of(owner, counter);
                        q.arm(component, timer, at(clock + delay));
                        if owner < 4 {
                            // A client has one slot: arming replaces
                            // whatever request it held. Past the bound,
                            // the cancelled deadlines leave the queue.
                            live.retain(|(o, _), _| *o != owner);
                            if client_deadlines(&model) >= q.deadline_bound() {
                                model.retain(|(_, s), queued| {
                                    !is_client(queued) || live.values().any(|l| l == s)
                                });
                            }
                        }
                        model.insert((at(clock + delay), seq), Expected::Timer(component, timer));
                        live.insert((owner, counter), seq);
                        let queued = client_deadlines(&model);
                        prop_assert_eq!(q.len() - q.events_len(), queued);
                        prop_assert!(queued <= q.deadline_bound());
                    }
                    Step::Cancel { owner, counter } => {
                        let (component, timer) = timer_of(owner, counter);
                        q.cancel(component, timer);
                        live.remove(&(owner, counter));
                    }
                    Step::Pop => check_pop(&mut q, &mut model, &mut live, &mut clock),
                }
            }
            while !model.is_empty() {
                check_pop(&mut q, &mut model, &mut live, &mut clock);
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
