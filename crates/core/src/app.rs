//! The interface between host stacks and application workloads.
//!
//! The same application (a VoIP call, a web fetch) must run unchanged over
//! three transports — neutralized (this crate's client/server stacks),
//! plain UDP (the baseline the discriminatory ISP can classify), and any
//! future variant — so the lab's A/B comparisons measure *network*
//! treatment, not application differences. The lab's workload
//! generators and population cohorts implement [`AppSource`]; host nodes
//! drive it.

use nn_netsim::SimTime;
use rand::rngs::StdRng;

/// An application-level send request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCommand {
    /// Destination: a DNS name (`google.com`) for initiated traffic, or
    /// the peer handle given in `on_receive` for replies.
    pub to: String,
    /// Application payload bytes.
    pub data: Vec<u8>,
}

/// A pluggable application workload.
pub trait AppSource: 'static {
    /// Called at start and at every wake timer; returns sends to perform.
    fn poll(&mut self, now: SimTime, rng: &mut StdRng) -> Vec<AppCommand>;

    /// When the host should call `poll` next; `None` = no more self-
    /// initiated traffic.
    fn next_wake(&self, now: SimTime) -> Option<SimTime>;

    /// Called when application data arrives. `from` is a peer handle that
    /// can be used in [`AppCommand::to`] to reply.
    fn on_receive(&mut self, now: SimTime, from: &str, data: &[u8]) -> Vec<AppCommand>;
}

/// An application that never sends and ignores everything it receives.
#[derive(Debug, Default)]
pub struct NullApp;

impl AppSource for NullApp {
    fn poll(&mut self, _now: SimTime, _rng: &mut StdRng) -> Vec<AppCommand> {
        Vec::new()
    }
    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
    fn on_receive(&mut self, _now: SimTime, _from: &str, _data: &[u8]) -> Vec<AppCommand> {
        Vec::new()
    }
}

/// Echoes every received payload straight back — the simplest responder,
/// used by tests and the quickstart example.
#[derive(Debug, Default)]
pub struct EchoApp {
    /// Payloads received, for assertions.
    pub received: Vec<Vec<u8>>,
}

impl AppSource for EchoApp {
    fn poll(&mut self, _now: SimTime, _rng: &mut StdRng) -> Vec<AppCommand> {
        Vec::new()
    }
    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
    fn on_receive(&mut self, _now: SimTime, from: &str, data: &[u8]) -> Vec<AppCommand> {
        self.received.push(data.to_vec());
        vec![AppCommand {
            to: from.to_string(),
            data: data.to_vec(),
        }]
    }
}

/// Sends a fixed schedule of payloads to one destination and records
/// everything that comes back (with receive timestamps).
#[derive(Debug)]
pub struct ScriptedApp {
    /// Destination name.
    pub to: String,
    /// (send time, payload) pairs, in ascending time order.
    pub schedule: Vec<(SimTime, Vec<u8>)>,
    next_idx: usize,
    /// (receive time, payload) log.
    pub received: Vec<(SimTime, Vec<u8>)>,
}

impl ScriptedApp {
    /// Builds from a schedule (must be time-sorted).
    pub fn new(to: impl Into<String>, schedule: Vec<(SimTime, Vec<u8>)>) -> Self {
        ScriptedApp {
            to: to.into(),
            schedule,
            next_idx: 0,
            received: Vec::new(),
        }
    }
}

impl AppSource for ScriptedApp {
    fn poll(&mut self, now: SimTime, _rng: &mut StdRng) -> Vec<AppCommand> {
        let mut out = Vec::new();
        while self.next_idx < self.schedule.len() && self.schedule[self.next_idx].0 <= now {
            out.push(AppCommand {
                to: self.to.clone(),
                data: self.schedule[self.next_idx].1.clone(),
            });
            self.next_idx += 1;
        }
        out
    }

    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        self.schedule.get(self.next_idx).map(|(t, _)| *t)
    }

    fn on_receive(&mut self, now: SimTime, _from: &str, data: &[u8]) -> Vec<AppCommand> {
        self.received.push((now, data.to_vec()));
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn null_app_is_silent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut app = NullApp;
        assert!(app.poll(SimTime::ZERO, &mut rng).is_empty());
        assert!(app.next_wake(SimTime::ZERO).is_none());
        assert!(app.on_receive(SimTime::ZERO, "x", b"data").is_empty());
    }

    #[test]
    fn echo_app_replies_to_sender() {
        let mut app = EchoApp::default();
        let cmds = app.on_receive(SimTime::ZERO, "10.0.0.5", b"ping");
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].to, "10.0.0.5");
        assert_eq!(cmds[0].data, b"ping");
        assert_eq!(app.received.len(), 1);
    }

    #[test]
    fn scripted_app_follows_schedule() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut app = ScriptedApp::new(
            "google.com",
            vec![
                (SimTime::from_millis(10), b"a".to_vec()),
                (SimTime::from_millis(20), b"b".to_vec()),
            ],
        );
        assert_eq!(app.next_wake(SimTime::ZERO), Some(SimTime::from_millis(10)));
        assert!(app.poll(SimTime::ZERO, &mut rng).is_empty());
        let cmds = app.poll(SimTime::from_millis(10), &mut rng);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].data, b"a");
        // Late poll delivers everything due.
        let cmds = app.poll(SimTime::from_millis(50), &mut rng);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].data, b"b");
        assert!(app.next_wake(SimTime::from_millis(50)).is_none());
    }
}
