//! The closed-loop client population model.
//!
//! The evaluation deploys up to 88 k clients, each of which "waits for a
//! response prior to sending its next request" (Section IX, *Setup*). The
//! [`ClientPopulation`] captures that closed loop: every client has at most
//! one outstanding transaction, a response releases the next request, and
//! the number of clients is the experiment's congestion knob (Figure 5).

use crate::ycsb::YcsbWorkload;
use sbft_types::{ClientId, IdMap, Transaction, TxnId};

/// A population of closed-loop clients driven by a shared workload
/// generator.
#[derive(Debug)]
pub struct ClientPopulation {
    workload: YcsbWorkload,
    num_clients: usize,
    outstanding: IdMap<ClientId, TxnId>,
    completed: u64,
}

impl ClientPopulation {
    /// Creates a population of `num_clients` clients.
    ///
    /// # Panics
    /// Panics if `num_clients` is zero.
    #[must_use]
    pub fn new(workload: YcsbWorkload, num_clients: usize) -> Self {
        assert!(num_clients > 0, "at least one client is required");
        ClientPopulation {
            workload,
            num_clients,
            outstanding: IdMap::default(),
            completed: 0,
        }
    }

    /// Number of clients in the population.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of requests currently awaiting a response.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Number of responses received so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The initial request of every client (each client issues exactly one
    /// request and then waits).
    pub fn initial_requests(&mut self) -> Vec<Transaction> {
        (0..self.num_clients as u32)
            .map(|c| self.issue(ClientId(c)))
            .collect()
    }

    /// Issues the next request for a specific client.
    ///
    /// # Panics
    /// Panics if the client already has an outstanding request (closed-loop
    /// violation) or is outside the population.
    pub fn issue(&mut self, client: ClientId) -> Transaction {
        assert!(
            (client.0 as usize) < self.num_clients,
            "unknown client {client}"
        );
        assert!(
            !self.outstanding.contains_key(&client),
            "{client} already has an outstanding request"
        );
        let txn = self.workload.next_transaction(client);
        self.outstanding.insert(client, txn.id);
        txn
    }

    /// Records a response for `txn` and, because clients are closed-loop,
    /// returns the client's next request. Responses for unknown or already
    /// answered transactions (duplicates re-sent by the verifier) return
    /// `None`.
    pub fn on_response(&mut self, txn: TxnId) -> Option<Transaction> {
        match self.outstanding.get(&txn.client) {
            Some(current) if *current == txn => {
                self.outstanding.remove(&txn.client);
                self.completed += 1;
                Some(self.issue(txn.client))
            }
            _ => None,
        }
    }

    /// Access to the underlying workload generator.
    #[must_use]
    pub fn workload(&self) -> &YcsbWorkload {
        &self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::WorkloadConfig;

    fn population(n: usize) -> ClientPopulation {
        let cfg = WorkloadConfig {
            num_records: 1_000,
            num_clients: n,
            ..WorkloadConfig::default()
        };
        ClientPopulation::new(YcsbWorkload::new(cfg, 7), n)
    }

    #[test]
    fn initial_requests_one_per_client() {
        let mut pop = population(5);
        let reqs = pop.initial_requests();
        assert_eq!(reqs.len(), 5);
        assert_eq!(pop.outstanding(), 5);
        let clients: std::collections::HashSet<_> = reqs.iter().map(|t| t.id.client).collect();
        assert_eq!(clients.len(), 5);
    }

    #[test]
    fn response_releases_next_request() {
        let mut pop = population(2);
        let reqs = pop.initial_requests();
        let next = pop.on_response(reqs[0].id).expect("next request");
        assert_eq!(next.id.client, reqs[0].id.client);
        assert_eq!(next.id.counter, reqs[0].id.counter + 1);
        assert_eq!(pop.completed(), 1);
        assert_eq!(pop.outstanding(), 2, "client immediately re-issues");
    }

    #[test]
    fn duplicate_responses_are_ignored() {
        let mut pop = population(2);
        let reqs = pop.initial_requests();
        let _ = pop.on_response(reqs[0].id).unwrap();
        assert!(
            pop.on_response(reqs[0].id).is_none(),
            "stale response ignored"
        );
        assert_eq!(pop.completed(), 1);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn double_issue_panics() {
        let mut pop = population(1);
        let _ = pop.issue(ClientId(0));
        let _ = pop.issue(ClientId(0));
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn issue_for_unknown_client_panics() {
        let mut pop = population(1);
        let _ = pop.issue(ClientId(5));
    }
}
