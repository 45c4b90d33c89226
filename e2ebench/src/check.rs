//! Answer checking. Read-only answers are compared with a table of
//! `Engine::oracle` answers; churn answers are rebuilt, at the version the
//! server returned, from a mirror made of the program's public pieces
//! (`HistoryCache`, `user_box_from_history`, `ItemScorer`, `top_k_masked`).

use std::collections::{HashMap, HashSet};

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::{HistoryCache, InBoxModel, ItemScorer};
use inbox_eval::top_k_masked;
use inbox_kg::{ItemId, UserId};
use inbox_serve::{Engine, Recommendation};

use crate::client::{Answer, Record, Reply};
use crate::gen::Op;
use crate::workload::{World, K};

/// An in-process answer in the form parsed from an HTTP body.
pub fn to_answer(r: &Recommendation) -> Answer {
    Answer {
        user: r.user.0,
        version: r.version,
        fallback: r.fallback,
        items: r.items.iter().map(|&(i, s)| (i.0, s.to_bits())).collect(),
    }
}

/// `Engine::oracle` answers for every user at the engine's current state.
pub struct OracleTable {
    answers: Vec<Answer>,
}

impl OracleTable {
    /// Asks the engine's oracle about every user (untimed).
    pub fn build(engine: &Engine) -> Self {
        let answers = (0..engine.n_users() as u32)
            .map(|u| {
                to_answer(
                    &engine
                        .oracle(UserId(u), K)
                        .expect("oracle for a known user"),
                )
            })
            .collect();
        Self { answers }
    }

    /// Checks every recommend record; returns a description of each wrong
    /// answer.
    pub fn check(&self, records: &[Record]) -> Vec<String> {
        let mut wrong = Vec::new();
        for r in records {
            if let (Op::Recommend { user }, Reply::Answer(a)) = (&r.req.op, &r.reply) {
                if *a != self.answers[*user as usize] {
                    wrong.push(format!(
                        "request {}: user {user} answer differs from the oracle",
                        r.req.id
                    ));
                }
            }
        }
        wrong
    }
}

/// Live state replayed on the client side: histories with versions and
/// masks, boxes rebuilt per `(user, version)`.
pub struct Mirror {
    model: InBoxModel,
    cfg: inbox_core::InBoxConfig,
    kg: inbox_kg::KnowledgeGraph,
    /// Built on the first recommend it checks: a mirror that only checks
    /// ingest versions (the read-only workloads' write slices) never holds
    /// a second copy of the item matrix.
    scorer: Option<ItemScorer>,
    popularity: Vec<f32>,
    history: HistoryCache,
    masks: Vec<Vec<ItemId>>,
    answers: HashMap<(u32, u64), Answer>,
    /// Users with a failed ingest: the server's state for them is unknown.
    unknown: HashSet<u32>,
}

impl Mirror {
    /// The state a freshly started stack serves from.
    pub fn new(world: &World) -> Self {
        let ds = &world.ds;
        Self {
            scorer: None,
            popularity: ds
                .train
                .item_popularity()
                .into_iter()
                .map(|c| c as f32)
                .collect(),
            history: HistoryCache::build(&ds.kg, &ds.train, &world.cfg),
            masks: (0..ds.n_users() as u32)
                .map(|u| ds.train.items_of(UserId(u)).to_vec())
                .collect(),
            model: world.model(),
            cfg: world.cfg.clone(),
            kg: ds.kg.clone(),
            answers: HashMap::new(),
            unknown: HashSet::new(),
        }
    }

    /// Applies an ingest; returns the user's version afterwards.
    pub fn ingest(&mut self, user: u32, item: u32) -> u64 {
        let mask = &mut self.masks[user as usize];
        if let Err(pos) = mask.binary_search(&ItemId(item)) {
            mask.insert(pos, ItemId(item));
        }
        self.history
            .ingest(&self.kg, &self.cfg, UserId(user), ItemId(item));
        self.history.version(UserId(user))
    }

    /// The exact answer for `user` at their current mirrored version.
    pub fn answer(&mut self, user: u32) -> &Answer {
        let u = UserId(user);
        let version = self.history.version(u);
        if !self.answers.contains_key(&(user, version)) {
            let mut tape = Tape::new();
            let b = user_box_from_history(
                &self.model,
                &self.cfg,
                &mut tape,
                u,
                self.history.history(u),
            );
            let (model, cfg, n_items) = (&self.model, &self.cfg, self.kg.n_items());
            let scorer = self
                .scorer
                .get_or_insert_with(|| ItemScorer::new(model, cfg, n_items));
            let scores = match &b {
                Some(b) => scorer.score_box(b),
                None => self.popularity.clone(),
            };
            let items = top_k_masked(&scores, &self.masks[user as usize], K)
                .into_iter()
                .map(|i| (i.0, scores[i.index()].to_bits()))
                .collect();
            let answer = Answer {
                user,
                version,
                fallback: b.is_none(),
                items,
            };
            self.answers.insert((user, version), answer);
        }
        &self.answers[&(user, version)]
    }

    /// Replays `records` in id order — valid because each user's requests
    /// all come from one client thread, one at a time — and returns a
    /// description of each wrong answer or version. After a failed ingest
    /// the server's state for that user is unknown, so that user's later
    /// answers are not judged (the failure already counts). Successive
    /// calls continue from the state the previous one left.
    pub fn check(&mut self, records: &[Record]) -> Vec<String> {
        let mut wrong = Vec::new();
        for r in records {
            let user = r.req.op.user();
            match (&r.req.op, &r.reply) {
                (Op::Ingest { item, .. }, Reply::Ingested { version }) => {
                    let want = self.ingest(user, *item);
                    if *version != want && !self.unknown.contains(&user) {
                        wrong.push(format!("request {}: ingest for user {user} returned version {version}, want {want}", r.req.id));
                    }
                }
                (Op::Ingest { item, .. }, _) => {
                    self.ingest(user, *item);
                    self.unknown.insert(user);
                }
                (Op::Recommend { .. }, Reply::Answer(a))
                    if !self.unknown.contains(&user) && a != self.answer(user) =>
                {
                    wrong.push(format!(
                        "request {}: user {user} answer at version {} differs from the mirror",
                        r.req.id, a.version
                    ));
                }
                _ => {}
            }
        }
        wrong
    }
}
