//! WS-BrokeredNotification at a broker or a federation front: publisher
//! registration, demand-based publishing and PullPoint creation. Both
//! own one [`Brokered`]; they differ only in how they say whether a
//! topic is wanted.
//!
//! * **Demand.** A publisher registered with `Demand=true` "only
//!   publishes messages when there are consumers" (paper §V.5, Table 3's
//!   demand-based row). The broker subscribes at the publisher once, with
//!   itself as the consumer and one topic filter per registered topic, so
//!   what the publisher sends arrives like any SOAP publication. It
//!   pauses that subscription while no live, unpaused subscription wants
//!   the registered topics, and resumes it when one does. A broker asks
//!   its registry (`WsMessenger::wants`); a front ORs its shards'
//!   answers.
//! * **PullPoints.** `CreatePullPoint` (WS-Notification 1.3) starts a
//!   base-spec [`PullPoint`] at `{uri}/pullpoints/{n}`. It is a mailbox
//!   that looks like a push consumer (paper §V.3), so a subscription that
//!   names it as its consumer needs nothing more from the broker.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wsm_addressing::EndpointReference;
use wsm_notification::{
    PullPoint, WsnClient, WsnFilter, WsnSubscribeRequest, WsnSubscriptionHandle, WsnVersion,
};
use wsm_soap::Fault;
use wsm_topics::TopicExpression;
use wsm_transport::Network;

/// A decoded `RegisterPublisher`.
#[derive(Clone)]
pub(crate) struct Registration {
    /// The version of the request, which the broker also speaks to the
    /// publisher.
    pub(crate) version: WsnVersion,
    pub(crate) publisher: Option<EndpointReference>,
    pub(crate) topics: Vec<TopicExpression>,
    /// Publish only while a subscription wants `topics`.
    pub(crate) demand: bool,
}

/// A demand-based publisher.
struct Publisher {
    topics: Vec<TopicExpression>,
    /// The broker's subscription at the publisher.
    subscription: WsnSubscriptionHandle,
    paused: bool,
}

/// Publisher registrations, the demand-based publishers among them, and
/// the PullPoints created so far.
#[derive(Default)]
pub(crate) struct Brokered {
    registrations: AtomicU64,
    pull_points: AtomicU64,
    /// A refresh holds this lock across its Pause/Resume round trips, so
    /// two never interleave; no registry or route lock is held then.
    demand: Mutex<Vec<Publisher>>,
    /// Whether `demand` has an entry: until it does, a refresh is this
    /// one relaxed load. It publishes nothing; the list is read under
    /// its lock.
    any_demand: AtomicBool,
    /// Set by each refresh; the one running repeats until it stays clear.
    stale: AtomicBool,
}

const REGISTRATION_FAILED: &str = "wsn-br:PublisherRegistrationFailedFault";

impl Brokered {
    /// Publishers registered so far.
    pub(crate) fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }

    /// Register a publisher at the broker `uri` and return the
    /// registration's address. A demand-based one is first subscribed
    /// to, unpaused; the caller's next [`Brokered::refresh`] pauses it
    /// if nothing wants its topics.
    pub(crate) fn register(
        &self,
        net: &Network,
        uri: &str,
        r: Registration,
    ) -> Result<String, Fault> {
        if r.demand {
            let publisher = r.publisher.ok_or_else(|| {
                Fault::sender("a demand-based registration requires a PublisherReference")
                    .with_subcode(REGISTRATION_FAILED)
            })?;
            let mut request = WsnSubscribeRequest::new(EndpointReference::new(uri));
            request.filters = r.topics.iter().cloned().map(WsnFilter::Topic).collect();
            let subscription = WsnClient::new(net, r.version)
                .subscribe(&publisher.address, &request)
                .map_err(|e| {
                    Fault::receiver(format!("could not subscribe at the publisher: {e}"))
                        .with_subcode(REGISTRATION_FAILED)
                })?;
            self.demand.lock().push(Publisher {
                topics: r.topics,
                subscription,
                paused: false,
            });
            self.any_demand.store(true, Ordering::Relaxed);
        }
        let n = 1 + self.registrations.fetch_add(1, Ordering::Relaxed);
        Ok(format!("{uri}/registrations/{n}"))
    }

    /// Start the next PullPoint of the broker `uri` and return its
    /// address; the network keeps the endpoint.
    pub(crate) fn create_pull_point(
        &self,
        net: &Network,
        uri: &str,
        version: WsnVersion,
    ) -> Result<String, Fault> {
        let n = 1 + self.pull_points.fetch_add(1, Ordering::Relaxed);
        let address = format!("{uri}/pullpoints/{n}");
        PullPoint::create(net, &address, version)
            .map(|_| address)
            .ok_or_else(|| Fault::sender(format!("{version:?} has no PullPoints")))
    }

    /// Pause every demand-based publisher whose topics `wanted` says no
    /// subscription wants, and resume every one it says some subscription
    /// wants again. A refresh asked for while another runs is left to
    /// that one, which then evaluates once more.
    pub(crate) fn refresh(&self, net: &Network, wanted: impl Fn(&[TopicExpression]) -> bool) {
        if !self.any_demand.load(Ordering::Relaxed) {
            return;
        }
        self.stale.store(true, Ordering::SeqCst);
        while self.stale.load(Ordering::SeqCst) {
            let Some(mut publishers) = self.demand.try_lock() else {
                return;
            };
            self.stale.store(false, Ordering::SeqCst);
            for p in publishers
                .iter_mut()
                .filter(|p| wanted(&p.topics) == p.paused)
            {
                let client = WsnClient::new(net, p.subscription.version);
                let sent = if p.paused {
                    client.resume(&p.subscription)
                } else {
                    client.pause(&p.subscription)
                };
                // A publisher that could not be reached is asked again
                // on the next refresh.
                if sent.is_ok() {
                    p.paused = !p.paused;
                }
            }
        }
    }
}
