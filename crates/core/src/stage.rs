//! The delivery engine's send stage.
//!
//! [`NetworkSink`] puts one rendered [`PushJob`] on the wire and owns
//! the send-with-retry policy: transient errors burn the in-line retry
//! budget, poison responses short-circuit. Every sending thread of a
//! fan-out owns one: the publisher, and on the pool hand-off (see
//! [`crate::delivery`]) each worker too. It sends
//! straight through [`Network::send_class`] — every subscription has
//! its own consumer address, so there is no route worth caching between
//! consecutive jobs. A handler takes its envelope by value, so each
//! send hands over a clone of the job's; the envelope is copy-on-write,
//! which makes that two reference bumps.

use crate::delivery::{FailKind, PushJob};
use wsm_transport::{AttemptClass, Network};

/// What one sink call did: the send outcome (classified on failure),
/// how many in-line retries it burned, and how long it took.
pub struct SendReport {
    /// `Ok` on delivery, else the failure classification that decides
    /// the job's fate (requeue vs poison budget).
    pub result: Result<(), FailKind>,
    /// In-line retries consumed (transient errors only).
    pub retried: u64,
    /// Wall-clock duration of the whole send including retries.
    pub elapsed_ns: u64,
}

/// The delivery engine's sink: sends one rendered job over the
/// simulated network with the broker's retry policy.
pub struct NetworkSink {
    net: Network,
    attempts: u32,
}

impl NetworkSink {
    /// A sink over `net` with `attempts` total in-line sends per job
    /// (clamped to at least one).
    pub fn new(net: Network, attempts: u32) -> Self {
        NetworkSink {
            net,
            attempts: attempts.max(1),
        }
    }

    /// Deliver one job: a one-shot or retried send, per the configured
    /// attempt budget.
    ///
    /// Only **transient** errors consume the immediate-retry budget; a
    /// poison response (SOAP fault, refused connection) short-circuits
    /// — the endpoint just told us it would reject an identical
    /// resend.
    pub fn send_event(&self, job: &PushJob) -> SendReport {
        let started = std::time::Instant::now();
        let mut retried = 0;
        let mut result = Err(FailKind::Transient);
        for i in 0..self.attempts {
            // Only the very first send of a job's first attempt counts
            // as a first-class attempt; everything after is a re-send
            // of the same message and is attributed as such in
            // transport metrics.
            let class = if job.attempt > 0 || i > 0 {
                AttemptClass::Retry
            } else {
                AttemptClass::First
            };
            match self
                .net
                .send_class(job.address(), job.envelope.clone(), class)
            {
                Ok(()) => {
                    result = Ok(());
                    break;
                }
                Err(err) => {
                    let kind = FailKind::of(&err);
                    if kind == FailKind::Poison {
                        result = Err(kind);
                        break;
                    }
                    if i + 1 < self.attempts {
                        retried += 1;
                    }
                }
            }
        }
        SendReport {
            result,
            retried,
            elapsed_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsm_soap::{Envelope, SoapVersion};
    use wsm_transport::SoapHandler;
    use wsm_xml::Element;

    fn job(address: &str, attempt: u32) -> PushJob {
        PushJob {
            sub: crate::registry::test_sub("s", address, true),
            envelope: Envelope::new(SoapVersion::V11).with_body(Element::local("e")),
            mediated: false,
            seq: 1,
            published_at_ms: 0,
            attempt,
        }
    }

    #[test]
    fn sink_retries_transient_and_shortcircuits_poison() {
        let net = Network::new();
        let sink = NetworkSink::new(net.clone(), 3);
        let rep = sink.send_event(&job("http://nowhere", 0));
        assert_eq!(rep.result, Err(FailKind::Transient));
        assert_eq!(rep.retried, 2, "attempts-1 retries for a missing endpoint");

        struct Faulty;
        impl SoapHandler for Faulty {
            fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
                Err(wsm_soap::Fault::receiver("always rejects"))
            }
        }
        net.register("http://faulty", Arc::new(Faulty));
        let rep = sink.send_event(&job("http://faulty", 0));
        assert_eq!(rep.result, Err(FailKind::Poison));
        assert_eq!(rep.retried, 0, "poison skips the in-line retry budget");
    }
}
