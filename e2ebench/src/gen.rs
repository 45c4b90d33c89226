//! The deterministic, seeded request generator.
//!
//! A plan is an open-loop arrival schedule: request `i` is due `i / rate`
//! seconds after the phase starts and belongs to client thread
//! `i % threads`. Everything in a plan — users, items, timing — is a pure
//! function of `(seed, salt, rate, count)` and of the dataset's initial
//! interaction sets; no clock or server reply feeds back into it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET /recommend?user=U&k=K`.
    Recommend {
        /// The user asked about.
        user: u32,
    },
    /// `POST /ingest?user=U&item=I`.
    Ingest {
        /// The user who interacted.
        user: u32,
        /// The item, always new to that user.
        item: u32,
    },
}

impl Op {
    /// The user the request is about.
    pub fn user(&self) -> u32 {
        match *self {
            Op::Recommend { user } | Op::Ingest { user, .. } => user,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the phase's global schedule; one id across every level
    /// a traced run replays the stream at.
    pub id: u64,
    /// Due time, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// What to send.
    pub op: Op,
}

/// A phase's schedule, split by client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// `streams[t]` is thread `t`'s requests in send order.
    pub streams: Vec<Vec<Request>>,
}

impl Plan {
    /// Total requests in the plan.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Read-only traffic: `count` recommends for users drawn uniformly from
/// `0..n_users`.
pub fn read_only(
    seed: u64,
    salt: u64,
    n_users: u32,
    rate: f64,
    count: usize,
    threads: usize,
) -> Plan {
    let mut rng = rng_for(seed, salt);
    let mut streams = vec![Vec::new(); threads];
    for i in 0..count {
        let user = rng.gen_range(0..n_users);
        streams[i % threads].push(Request {
            id: i as u64,
            at_ns: due_ns(i, rate),
            op: Op::Recommend { user },
        });
    }
    Plan { rate, streams }
}

/// Per-user state the churn generator needs: what each user already holds
/// and how many more history entries fit under the cap.
#[derive(Debug, Clone)]
pub struct Users {
    /// Items each user has interacted with (any order).
    known: Vec<Vec<u32>>,
    /// Ingests each user can still take while their capped history stays
    /// strictly below the cap.
    headroom: Vec<usize>,
    n_items: u32,
}

impl Users {
    /// `known[u]` is user `u`'s initial interaction set, `history_len[u]`
    /// the length of their capped history, `cap` the history cap
    /// (`max_history_infer`).
    pub fn new(known: Vec<Vec<u32>>, history_len: &[usize], cap: usize, n_items: u32) -> Self {
        let headroom = history_len
            .iter()
            .map(|&h| cap.saturating_sub(h + 1))
            .collect();
        Self {
            known,
            headroom,
            n_items,
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Picks `user` or, if their history has no room left, the next user
    /// owned by the same thread that has room.
    fn with_room(&self, user: usize, threads: usize) -> Option<usize> {
        let (t, slot) = (user % threads, user / threads);
        let owned = (self.len() - t).div_ceil(threads);
        (0..owned)
            .map(|step| t + (slot + step) % owned * threads)
            .find(|&u| self.headroom[u] > 0)
    }

    /// A random item `user` has never interacted with; records it.
    fn fresh_item(&mut self, rng: &mut StdRng, user: usize) -> u32 {
        loop {
            let item = rng.gen_range(0..self.n_items);
            if !self.known[user].contains(&item) {
                self.known[user].push(item);
                self.headroom[user] -= 1;
                return item;
            }
        }
    }
}

/// Users needed so that `ingests` new-item ingests fit with every history
/// strictly under the cap, given that each user's history starts at most
/// `max_history` long. Keeps a 30 % margin for uneven draws and rounds up to
/// a multiple of `threads`; never fewer than `base`.
pub fn users_for_ingests(
    ingests: usize,
    cap: usize,
    max_history: usize,
    base: usize,
    threads: usize,
) -> usize {
    let room = cap.saturating_sub(max_history + 1).max(1);
    let need = (ingests as f64 * 1.3 / room as f64).ceil() as usize;
    need.max(base).div_ceil(threads) * threads
}

/// Steps of the churn cycle each thread repeats: `true` ingests an item new
/// to a random user `v` of the thread's own and reads `v` next; `false`
/// reads a random user of its own. Three ingests per five recommends, so
/// three of every five reads rebuild a box (60 %, which keeps the median
/// read inside the rebuild mode rather than on the edge between modes).
const CHURN_CYCLE: [bool; 5] = [true, true, true, false, false];

/// Read/write churn: each user belongs to thread `user % threads`, so one
/// user's requests are sent in a fixed order. Each thread cycles through
/// [`CHURN_CYCLE`]: an ingest step is an ingest of an item new to a random
/// own user followed by a read of that user; a read step reads a random own
/// user.
///
/// Fails if the users run out of history room before `count` requests.
pub fn churn(
    seed: u64,
    salt: u64,
    users: &mut Users,
    rate: f64,
    count: usize,
    threads: usize,
) -> Result<Plan, String> {
    let mut rng = rng_for(seed, salt);
    let n = users.len();
    let mut streams = vec![Vec::new(); threads];
    // Per thread: the user whose read is due next after an ingest.
    let mut follow: Vec<Option<u32>> = vec![None; threads];
    // Per thread: position in the cycle.
    let mut step = vec![0usize; threads];
    for i in 0..count {
        let t = i % threads;
        let pick_own = |rng: &mut StdRng| {
            let owned = (n - t).div_ceil(threads);
            t + rng.gen_range(0..owned) * threads
        };
        let op = if let Some(user) = follow[t].take() {
            Op::Recommend { user }
        } else if CHURN_CYCLE[step[t]] {
            step[t] = (step[t] + 1) % CHURN_CYCLE.len();
            let want = pick_own(&mut rng);
            let user = users.with_room(want, threads).ok_or_else(|| {
                format!("thread {t}'s users ran out of history room after {i} requests")
            })?;
            let item = users.fresh_item(&mut rng, user);
            follow[t] = Some(user as u32);
            Op::Ingest {
                user: user as u32,
                item,
            }
        } else {
            step[t] = (step[t] + 1) % CHURN_CYCLE.len();
            Op::Recommend {
                user: pick_own(&mut rng) as u32,
            }
        };
        streams[t].push(Request {
            id: i as u64,
            at_ns: due_ns(i, rate),
            op,
        });
    }
    Ok(Plan { rate, streams })
}

/// Ingest-only traffic (the read-only workloads' closing write phase):
/// `count` new-item ingests for random users with history room, each user
/// owned by one thread as in [`churn`].
pub fn ingest_only(
    seed: u64,
    salt: u64,
    users: &mut Users,
    rate: f64,
    count: usize,
    threads: usize,
) -> Result<Plan, String> {
    let mut rng = rng_for(seed, salt);
    let n = users.len();
    let mut streams = vec![Vec::new(); threads];
    for i in 0..count {
        let t = i % threads;
        let want = t + rng.gen_range(0..(n - t).div_ceil(threads)) * threads;
        let user = users.with_room(want, threads).ok_or_else(|| {
            format!("thread {t}'s users ran out of history room after {i} ingests")
        })?;
        let item = users.fresh_item(&mut rng, user);
        streams[i % threads].push(Request {
            id: i as u64,
            at_ns: due_ns(i, rate),
            op: Op::Ingest {
                user: user as u32,
                item,
            },
        });
    }
    Ok(Plan { rate, streams })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users(n: usize) -> Users {
        let known: Vec<Vec<u32>> = (0..n as u32).map(|u| (0..u % 7).collect()).collect();
        let hist: Vec<usize> = known.iter().map(Vec::len).collect();
        Users::new(known, &hist, 64, 400)
    }

    #[test]
    fn same_seed_same_read_only_plan() {
        let a = read_only(7, 1, 120, 1000.0, 5000, 2);
        let b = read_only(7, 1, 120, 1000.0, 5000, 2);
        assert_eq!(a, b);
        assert_ne!(a, read_only(8, 1, 120, 1000.0, 5000, 2));
        assert_ne!(a, read_only(7, 2, 120, 1000.0, 5000, 2));
        assert_eq!(a.len(), 5000);
        // Request i is due at i/rate on thread i % 2.
        let r = a.streams[1][500];
        assert_eq!((r.id, r.at_ns), (1001, 1_001_000_000));
    }

    #[test]
    fn same_seed_same_churn_plan_and_user_count() {
        let n = users_for_ingests(3000, 64, 35, 120, 2);
        assert_eq!(n, users_for_ingests(3000, 64, 35, 120, 2));
        assert_eq!(n % 2, 0);
        let a = churn(3, 9, &mut users(n), 900.0, 9000, 2).unwrap();
        let b = churn(3, 9, &mut users(n), 900.0, 9000, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, churn(4, 9, &mut users(n), 900.0, 9000, 2).unwrap());
    }

    #[test]
    fn churn_ingests_new_items_owned_and_followed_by_a_read() {
        let n = users_for_ingests(3000, 64, 6, 10, 2);
        let mut u = users(n);
        let initial = u.known.clone();
        let plan = churn(11, 0, &mut u, 1000.0, 9000, 2).unwrap();
        let mut seen = initial.clone();
        let mut added = vec![0usize; n];
        for (t, stream) in plan.streams.iter().enumerate() {
            let mut ingests = 0;
            for (k, r) in stream.iter().enumerate() {
                assert_eq!(r.op.user() as usize % 2, t, "user on the wrong thread");
                if let Op::Ingest { user, item } = r.op {
                    ingests += 1;
                    let user = user as usize;
                    assert!(!seen[user].contains(&item), "ingested an item the user had");
                    seen[user].push(item);
                    added[user] += 1;
                    assert_eq!(stream[k + 1].op, Op::Recommend { user: user as u32 });
                }
            }
            // Three ingests per eight requests.
            assert!((ingests as f64 / stream.len() as f64 - 3.0 / 8.0).abs() < 0.01);
        }
        for (user, a) in added.iter().enumerate() {
            assert!(initial[user].len() + a < 64, "user {user} reached the cap");
        }
    }

    #[test]
    fn churn_fails_when_users_run_out_of_room() {
        let known = vec![vec![]; 2];
        let mut u = Users::new(known, &[62, 62], 64, 400);
        assert!(churn(1, 0, &mut u, 100.0, 12, 2).is_err());
    }

    #[test]
    fn ingest_only_respects_room_and_is_deterministic() {
        let a = ingest_only(5, 3, &mut users(40), 500.0, 1000, 2).unwrap();
        assert_eq!(
            a,
            ingest_only(5, 3, &mut users(40), 500.0, 1000, 2).unwrap()
        );
        for (t, stream) in a.streams.iter().enumerate() {
            for r in stream {
                assert!(matches!(r.op, Op::Ingest { .. }));
                assert_eq!(r.op.user() as usize % 2, t);
            }
        }
    }
}
