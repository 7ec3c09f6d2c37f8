//! Seeded input generation: event facts, subscription populations and
//! the random sources. Plain Rust only — nothing here names a broker
//! crate, so the oracle can share these definitions without sharing
//! any code with the system under test.

/// Deterministic LCG mapped to uniform `f64` in `[0, 1)`.
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        // One scramble step so that small seeds do not start correlated.
        let mut g = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        g.next_u64();
        g
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Next uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// Zipf(s = 1) sampler over `n` ranks by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` (rank 0 is the hottest).
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k as f64 + 1.0);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u`.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// What the oracle needs to know about one publication. The payload
/// built from it is
/// `<event sev seq><source>gridftp-K</source><job>job-J</job><detail>…</detail></event>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventFacts {
    /// Publication sequence number, strictly increasing per run.
    pub seq: u64,
    /// Topic id in the workload's topic naming, `None` for a topicless
    /// publication.
    pub topic: Option<u32>,
    /// Severity attribute, 1..=7.
    pub sev: u8,
    /// `gridftp-<source>`, 0..13.
    pub source: u8,
    /// `job-<job>`.
    pub job: u32,
}

impl EventFacts {
    /// The facts every workload derives from a sequence number; `subs`
    /// is the size of the fixed population the job id cycles over.
    pub fn of(seq: u64, topic: Option<u32>, subs: u32) -> Self {
        EventFacts {
            seq,
            topic,
            sev: (seq % 7) as u8 + 1,
            source: (seq % 13) as u8,
            job: (seq % u64::from(subs.max(1))) as u32,
        }
    }
}

/// Filler that brings the serialized payload to about 200 bytes.
pub const DETAIL: &str = "transfer completed; bytes=1073741824 duration=42s checksum=ok";

/// Which specification a subscription is made in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// WS-Eventing, August 2004.
    WseAug2004,
    /// WS-Notification 1.3.
    Wsn13,
}

/// The content predicate of a subscription, kept as data so that the
/// XPath text handed to the broker and the plain-Rust check used by
/// the oracle come from one definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Content {
    /// `/event[@sev>N]`
    SevAbove(u8),
    /// `/event/job = 'job-J'`
    JobIs(u32),
    /// `/event[source='gridftp-K' and @sev>5]`
    SourceAndSevere(u8),
}

impl Content {
    /// The XPath 1.0 text of this predicate.
    pub fn xpath(self) -> String {
        match self {
            Content::SevAbove(n) => format!("/event[@sev>{n}]"),
            Content::JobIs(j) => format!("/event/job = 'job-{j}'"),
            Content::SourceAndSevere(k) => {
                format!("/event[source='gridftp-{k}' and @sev>5]")
            }
        }
    }

    /// The same predicate over the facts, without any XPath.
    pub fn admits(self, e: &EventFacts) -> bool {
        match self {
            Content::SevAbove(n) => e.sev > n,
            Content::JobIs(j) => e.job == j,
            Content::SourceAndSevere(k) => e.source == k && e.sev > 5,
        }
    }
}

/// One subscription as the benchmark requests it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubSpec {
    /// Specification family of the Subscribe request.
    pub family: Family,
    /// Topic expression text (`a/b/c` concrete, or with `*` full);
    /// `None` for a topicless subscription.
    pub topic: Option<String>,
    /// Content predicate, if any.
    pub content: Option<Content>,
}

/// Name of grid topic `t`.
pub fn grid_topic(t: u32) -> String {
    format!("grid/site{}/node{}", t % 50, t)
}

/// Subscription `i` of a grid population over `topics` topics (2 500
/// at full scale): the kind cycles with `i mod 4`, the topic with
/// `i mod topics`.
pub fn grid_sub(i: u32, topics: u32) -> SubSpec {
    let t = i % topics;
    match i % 4 {
        0 => SubSpec {
            family: Family::Wsn13,
            topic: Some(grid_topic(t)),
            content: None,
        },
        1 => SubSpec {
            family: Family::Wsn13,
            topic: Some(grid_topic(t)),
            content: Some(Content::SevAbove((i % 7) as u8)),
        },
        2 => SubSpec {
            family: Family::WseAug2004,
            topic: None,
            content: Some(Content::JobIs(i)),
        },
        _ => SubSpec {
            family: Family::Wsn13,
            topic: Some(format!("grid/site{}/*", t % 50)),
            content: Some(Content::SourceAndSevere((i % 13) as u8)),
        },
    }
}

/// The fan-out population: even subscribers are topicless WS-Eventing,
/// odd ones WS-Notification 1.3 on [`FANOUT_TOPIC`].
pub fn fanout_sub(i: u32) -> SubSpec {
    if i.is_multiple_of(2) {
        SubSpec {
            family: Family::WseAug2004,
            topic: None,
            content: None,
        }
    } else {
        SubSpec {
            family: Family::Wsn13,
            topic: Some(FANOUT_TOPIC.to_string()),
            content: None,
        }
    }
}

/// The one topic of the fan-out workloads.
pub const FANOUT_TOPIC: &str = "jobs/status";

/// Federated subscription `i` listens on root `z<i mod roots>`.
pub fn fed_sub(i: u32, roots: u32) -> SubSpec {
    SubSpec {
        family: Family::Wsn13,
        topic: Some(format!("z{}", i % roots)),
        content: None,
    }
}

/// Publications on federated root `r` go to `z<r>/readings`.
pub fn fed_topic(r: u32) -> String {
    format!("z{r}/readings")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(1000);
        let draw = |seed| {
            let mut g = Lcg::new(seed);
            (0..5000)
                .map(|_| z.sample(g.next_f64()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(1337));
        let hot = draw(42).iter().filter(|&&r| r < 10).count();
        // H(10)/H(1000) is about 0.39 of the mass.
        assert!((1700..2300).contains(&hot), "top-10 share {hot}/5000");
    }

    #[test]
    fn grid_kinds_cycle_and_predicates_agree_with_their_text() {
        assert_eq!(grid_sub(0, 2500).topic.as_deref(), Some("grid/site0/node0"));
        assert_eq!(grid_sub(2, 2500).content, Some(Content::JobIs(2)));
        assert_eq!(grid_sub(2503, 2500).topic.as_deref(), Some("grid/site3/*"));
        let e = EventFacts::of(12, Some(3), 20_000);
        assert_eq!((e.sev, e.source, e.job), (6, 12, 12));
        assert!(Content::SevAbove(5).admits(&e));
        assert!(!Content::SevAbove(6).admits(&e));
        assert!(Content::SourceAndSevere(12).admits(&e));
        assert_eq!(Content::JobIs(7).xpath(), "/event/job = 'job-7'");
    }
}
