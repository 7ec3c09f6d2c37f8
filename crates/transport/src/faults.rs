//! Data-driven fault injection.
//!
//! The seed network shipped exactly one fault: "drop the next N
//! deliveries to a URI". Chaos scenarios need richer, *reproducible*
//! misbehavior — endpoints that flap on a schedule, links that lose a
//! fixed fraction of traffic, handlers that answer with SOAP faults,
//! latency spikes — and they need it expressible as data so a test can
//! construct a whole scenario up front and replay it bit-for-bit.
//!
//! A [`FaultPlan`] is that data: a seed plus one [`EndpointFaults`]
//! spec per URI. Every probabilistic decision is derived from the seed,
//! the target URI, and a per-URI delivery counter — never from global
//! RNG state — so the n-th delivery to a given URI sees the same fate
//! regardless of thread interleaving, and two runs of the same scenario
//! produce identical traces. Time-based faults (flapping windows) read
//! the network's virtual [`SimClock`](crate::SimClock), which tests
//! advance explicitly, so they are deterministic too.

use std::collections::{HashMap, VecDeque};

/// A deterministic per-decision hash (splitmix64 finalizer over the
/// seed, the URI hash, and the delivery ordinal). Stateless: the same
/// inputs always produce the same 64 bits.
fn mix(seed: u64, uri_hash: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(uri_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a URI, fixing each endpoint's fault stream.
fn uri_hash(uri: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in uri.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A periodic down-window on the virtual clock: the endpoint is
/// unreachable whenever `(now + phase) % period < down` — e.g.
/// `period_ms: 1000, down_ms: 300` models an endpoint that is dark for
/// 30% of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flap {
    /// Cycle length in virtual milliseconds.
    pub period_ms: u64,
    /// How long the endpoint is down at the start of each cycle.
    pub down_ms: u64,
    /// Offset into the cycle at virtual time zero.
    pub phase_ms: u64,
}

impl Flap {
    /// Is the endpoint down at virtual time `now_ms`?
    pub fn down_at(&self, now_ms: u64) -> bool {
        if self.period_ms == 0 {
            return false;
        }
        (now_ms + self.phase_ms) % self.period_ms < self.down_ms.min(self.period_ms)
    }
}

/// The fault behavior of one endpoint, composable as a builder.
///
/// Per-delivery decisions are evaluated in a fixed order: one-shot
/// counters first (`fault_next`, then `drop_next`), then the flapping
/// schedule, then seeded random loss. A latency spike, when scheduled,
/// applies regardless of the delivery's eventual fate (the wire was
/// slow *and* the message was lost).
#[derive(Debug, Clone, Default)]
pub struct EndpointFaults {
    /// Drop the next N deliveries (transient loss).
    pub drop_next: u32,
    /// Answer the next N deliveries with an injected SOAP fault
    /// (poison responses, as opposed to transient loss).
    pub fault_next: u32,
    /// Extra virtual latency (ms) applied to upcoming deliveries, one
    /// entry consumed per delivery.
    pub latency_spikes_ms: VecDeque<u64>,
    /// Fraction of deliveries lost, decided by the plan seed
    /// (`0.0..=1.0`).
    pub drop_rate: f64,
    /// Periodic unavailability on the virtual clock.
    pub flap: Option<Flap>,
    /// Deliveries attempted against this endpoint so far (the ordinal
    /// feeding the seeded decisions).
    pub attempts: u64,
}

impl EndpointFaults {
    /// A spec that injects nothing.
    pub fn new() -> Self {
        EndpointFaults::default()
    }

    /// Drop the next `n` deliveries.
    pub fn with_drop_next(mut self, n: u32) -> Self {
        self.drop_next = n;
        self
    }

    /// Answer the next `n` deliveries with a SOAP fault.
    pub fn with_fault_next(mut self, n: u32) -> Self {
        self.fault_next = n;
        self
    }

    /// Add `n` latency spikes of `ms` virtual milliseconds each.
    pub fn with_latency_spikes(mut self, ms: u64, n: usize) -> Self {
        self.latency_spikes_ms.extend(std::iter::repeat_n(ms, n));
        self
    }

    /// Lose `rate` of deliveries (seeded, deterministic per ordinal).
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Flap: down for `down_ms` out of every `period_ms`.
    pub fn with_flapping(mut self, period_ms: u64, down_ms: u64) -> Self {
        self.flap = Some(Flap {
            period_ms,
            down_ms,
            phase_ms: 0,
        });
        self
    }

    /// Flap with an explicit phase offset.
    pub fn with_flapping_phased(mut self, period_ms: u64, down_ms: u64, phase_ms: u64) -> Self {
        self.flap = Some(Flap {
            period_ms,
            down_ms,
            phase_ms,
        });
        self
    }

    fn is_noop(&self) -> bool {
        self.drop_next == 0
            && self.fault_next == 0
            && self.latency_spikes_ms.is_empty()
            && self.drop_rate == 0.0
            && self.flap.is_none()
    }
}

/// What the plan decided for one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Let the delivery through.
    Deliver,
    /// Lose the message in transit (transient).
    Drop,
    /// Make the endpoint answer with an injected SOAP fault (poison).
    Fault,
}

/// One delivery's injected effects: extra latency plus the fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected {
    /// Extra virtual milliseconds to add to the hop.
    pub extra_latency_ms: u64,
    /// What happens to the message.
    pub action: Injection,
}

impl Injected {
    /// Nothing injected: what a plan answers for an endpoint it does
    /// not name.
    pub(crate) const CLEAN: Injected = Injected {
        extra_latency_ms: 0,
        action: Injection::Deliver,
    };
}

/// A whole chaos scenario as data: a seed and per-endpoint fault specs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision in the plan.
    pub seed: u64,
    specs: HashMap<String, EndpointFaults>,
}

impl FaultPlan {
    /// An empty plan (nothing injected) with seed zero.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: HashMap::new(),
        }
    }

    /// Attach a fault spec to `uri` (builder style).
    pub fn with_endpoint(mut self, uri: impl Into<String>, faults: EndpointFaults) -> Self {
        self.specs.insert(uri.into(), faults);
        self
    }

    /// Mutable access to the spec for `uri`, created empty on demand.
    pub fn endpoint_mut(&mut self, uri: impl Into<String>) -> &mut EndpointFaults {
        self.specs.entry(uri.into()).or_default()
    }

    /// The spec for `uri`, if any.
    pub fn endpoint(&self, uri: &str) -> Option<&EndpointFaults> {
        self.specs.get(uri)
    }

    /// Does the plan name any endpoint at all? When it does not,
    /// [`FaultPlan::on_delivery`] answers "deliver, no extra latency"
    /// for every URI and changes nothing — which is what lets the
    /// network skip the plan (and its lock) while this is false.
    pub(crate) fn names_an_endpoint(&self) -> bool {
        !self.specs.is_empty()
    }

    /// Is any fault configured anywhere?
    pub fn is_empty(&self) -> bool {
        self.specs.values().all(|s| s.is_noop())
    }

    /// Decide the fate of one delivery to `uri` at virtual time
    /// `now_ms`, consuming one-shot budgets and advancing the
    /// endpoint's delivery ordinal.
    pub fn on_delivery(&mut self, uri: &str, now_ms: u64) -> Injected {
        let seed = self.seed;
        let Some(spec) = self.specs.get_mut(uri) else {
            return Injected::CLEAN;
        };
        let ordinal = spec.attempts;
        spec.attempts += 1;
        let extra_latency_ms = spec.latency_spikes_ms.pop_front().unwrap_or(0);
        let action = if spec.fault_next > 0 {
            spec.fault_next -= 1;
            Injection::Fault
        } else if spec.drop_next > 0 {
            spec.drop_next -= 1;
            Injection::Drop
        } else if spec
            .flap
            .is_some_and(|f| f.down_at(now_ms + extra_latency_ms))
        {
            Injection::Drop
        } else if spec.drop_rate > 0.0 {
            // Map 53 high bits to [0, 1): the same unit-interval draw
            // the vendored rand uses, but keyed on (seed, uri, ordinal)
            // instead of shared generator state.
            let unit = (mix(seed, uri_hash(uri), ordinal) >> 11) as f64 / (1u64 << 53) as f64;
            if unit < spec.drop_rate {
                Injection::Drop
            } else {
                Injection::Deliver
            }
        } else {
            Injection::Deliver
        };
        Injected {
            extra_latency_ms,
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_delivers() {
        let mut p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.on_delivery("http://a", 0), Injected::CLEAN);
    }

    #[test]
    fn one_shot_budgets_consume_in_order() {
        let mut p = FaultPlan::new().with_endpoint(
            "http://a",
            EndpointFaults::new().with_fault_next(1).with_drop_next(1),
        );
        assert_eq!(p.on_delivery("http://a", 0).action, Injection::Fault);
        assert_eq!(p.on_delivery("http://a", 0).action, Injection::Drop);
        assert_eq!(p.on_delivery("http://a", 0).action, Injection::Deliver);
    }

    #[test]
    fn latency_spikes_apply_per_delivery() {
        let mut p = FaultPlan::new()
            .with_endpoint("http://a", EndpointFaults::new().with_latency_spikes(50, 2));
        assert_eq!(p.on_delivery("http://a", 0).extra_latency_ms, 50);
        assert_eq!(p.on_delivery("http://a", 0).extra_latency_ms, 50);
        assert_eq!(p.on_delivery("http://a", 0).extra_latency_ms, 0);
    }

    #[test]
    fn flap_windows_follow_the_virtual_clock() {
        let f = Flap {
            period_ms: 1000,
            down_ms: 300,
            phase_ms: 0,
        };
        assert!(f.down_at(0));
        assert!(f.down_at(299));
        assert!(!f.down_at(300));
        assert!(!f.down_at(999));
        assert!(f.down_at(1000));
        assert!(f.down_at(1299));
        assert!(!f.down_at(1500));
    }

    #[test]
    fn drop_rate_is_deterministic_and_roughly_calibrated() {
        let fates = |seed: u64| -> Vec<Injection> {
            let mut p = FaultPlan::seeded(seed)
                .with_endpoint("http://a", EndpointFaults::new().with_drop_rate(0.3));
            (0..1000)
                .map(|_| p.on_delivery("http://a", 0).action)
                .collect()
        };
        let a = fates(42);
        let b = fates(42);
        assert_eq!(a, b, "same seed, same fates");
        let c = fates(43);
        assert_ne!(a, c, "different seed, different fates");
        let drops = a.iter().filter(|i| **i == Injection::Drop).count();
        assert!((200..400).contains(&drops), "~30% loss, got {drops}/1000");
    }

    #[test]
    fn endpoints_have_independent_fault_streams() {
        let mut p = FaultPlan::seeded(7)
            .with_endpoint("http://a", EndpointFaults::new().with_drop_rate(0.5))
            .with_endpoint("http://b", EndpointFaults::new().with_drop_rate(0.5));
        let a: Vec<_> = (0..64)
            .map(|_| p.on_delivery("http://a", 0).action)
            .collect();
        let b: Vec<_> = (0..64)
            .map(|_| p.on_delivery("http://b", 0).action)
            .collect();
        assert_ne!(a, b);
    }
}
