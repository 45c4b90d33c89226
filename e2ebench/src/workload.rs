//! The three workloads and the serving stack they run against.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::{InBoxConfig, Quantization};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, HttpServer, IndexMode, ServeConfig, Service};

use crate::client::wait_healthy;
use crate::gen::{self, Users};

/// Client threads (the host's core count; at most one request in flight
/// per thread).
pub const THREADS: usize = 2;

/// List length asked for on every `/recommend`.
pub const K: usize = 20;

/// Seed of the dataset twin and of the item-point clusters. The twin is the
/// same in every run so that runs differ only in their traffic (drawn from
/// `--seed`); with a per-seed twin, catalog-ivf's work per request moved by
/// ±20 % between seeds with the cluster geometry.
const DATA_SEED: u64 = 7;

/// Which workload, and everything that differs between them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Dataset twin (users raised later for churn).
    pub synth: SyntheticConfig,
    /// Cluster item points by tag, as trained geometry would be.
    pub clustered: bool,
    /// Serving configuration.
    pub serve: ServeConfig,
    /// Read/write churn instead of read-only traffic.
    pub churn: bool,
    /// The fixed offered rate (requests per second) at which `p50_ms`,
    /// `cpu_us_per_req` and `failed_frac` are measured: about half the
    /// seed's `max_rps`, set once and never changed afterwards.
    pub fixed_rate: f64,
    /// Initial `max_rps` search bracket, ±12 % around the knee measured
    /// when the benchmark was written.
    pub bracket: (f64, f64),
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Self> {
        let small = SyntheticConfig::small();
        match name {
            "hot-small" => Some(Self {
                name: "hot-small",
                synth: small,
                clustered: false,
                serve: ServeConfig::default(),
                churn: false,
                fixed_rate: 900.0,
                bracket: (1640.0, 2050.0),
            }),
            "catalog-ivf" => Some(Self {
                name: "catalog-ivf",
                synth: small.with_items_scale(100),
                clustered: true,
                serve: ServeConfig {
                    index: IndexMode::Ivf {
                        nlist: 0,
                        nprobe: 0,
                    },
                    quantize: Quantization::Int8,
                    ..ServeConfig::default()
                },
                churn: false,
                fixed_rate: 370.0,
                bracket: (650.0, 815.0),
            }),
            "ingest-churn" => Some(Self {
                name: "ingest-churn",
                synth: small,
                clustered: false,
                serve: ServeConfig::default(),
                churn: true,
                fixed_rate: 700.0,
                bracket: (1230.0, 1540.0),
            }),
            _ => None,
        }
    }

    /// Every workload name, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 3] = ["hot-small", "catalog-ivf", "ingest-churn"];
}

/// Dataset, model configuration and workload: everything generated before
/// set-up starts.
pub struct World {
    /// The workload.
    pub workload: Workload,
    /// Model configuration (`InBoxConfig::default()`, d = 32).
    pub cfg: InBoxConfig,
    /// The generated twin.
    pub ds: Dataset,
    /// Seed the requests derive from.
    pub seed: u64,
}

impl World {
    /// Generates the dataset twin for `workload`; `seed` is kept for the
    /// traffic. For churn, `users` overrides the twin's user count.
    pub fn new(workload: Workload, seed: u64, users: Option<usize>) -> Self {
        let mut synth = workload.synth.clone();
        if let Some(n) = users {
            synth.n_users = n;
        }
        let ds = Dataset::synthetic(&synth, DATA_SEED);
        Self {
            workload,
            cfg: InBoxConfig::default(),
            ds,
            seed,
        }
    }

    /// A fresh untrained model (deterministic in the config seed), with
    /// clustered item points when the workload asks for them.
    pub fn model(&self) -> InBoxModel {
        let sizes = UniverseSizes {
            n_items: self.ds.kg.n_items(),
            n_tags: self.ds.kg.n_tags(),
            n_relations: self.ds.kg.n_relations(),
            n_users: self.ds.n_users(),
        };
        let mut model = InBoxModel::new(sizes, &self.cfg);
        if self.workload.clustered {
            inbox_testkit::harness::cluster_item_points(
                &mut model,
                self.ds.kg.n_tags().max(1),
                0.05,
                DATA_SEED ^ 0x1db0,
            );
        }
        model
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.ds.n_users()
    }

    /// The generator's view of the users: initial item sets and history
    /// lengths.
    pub fn users(&self) -> Users {
        let n = self.n_users() as u32;
        let known: Vec<Vec<u32>> = (0..n)
            .map(|u| {
                self.ds
                    .train
                    .items_of(UserId(u))
                    .iter()
                    .map(|i| i.0)
                    .collect()
            })
            .collect();
        let hist: Vec<usize> = known
            .iter()
            .map(|k| k.len().min(self.cfg.max_history_infer))
            .collect();
        Users::new(
            known,
            &hist,
            self.cfg.max_history_infer,
            self.ds.kg.n_items() as u32,
        )
    }

    /// Users the churn workload needs for `max_requests` requests in one
    /// phase (three ingests per eight requests) with no history at the cap.
    pub fn churn_users(workload: &Workload, max_requests: usize) -> usize {
        gen::users_for_ingests(
            (max_requests * 3).div_ceil(8),
            InBoxConfig::default().max_history_infer,
            workload.synth.interactions_per_user.1,
            workload.synth.n_users,
            THREADS,
        )
    }
}

/// The real serving stack: engine, batcher, audit worker and HTTP front
/// door on a loopback port.
pub struct Stack {
    /// The service (engine behind the batcher).
    pub service: Arc<Service>,
    http: HttpServer,
}

impl Stack {
    /// `Engine::new` → `Service::start` → `HttpServer::bind` → first
    /// `/health` 200. The model is built before the clock starts; the
    /// returned seconds cover only the stack's own set-up (index build and
    /// quantization included).
    pub fn start(world: &World) -> (Self, f64) {
        let model = world.model();
        let kg = world.ds.kg.clone();
        let t0 = Instant::now();
        let engine = Engine::new(
            model,
            world.cfg.clone(),
            kg,
            &world.ds.train,
            &world.workload.serve,
        );
        let service = Arc::new(Service::start(engine, &world.workload.serve));
        let http =
            HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind a loopback port");
        wait_healthy(http.local_addr());
        let secs = t0.elapsed().as_secs_f64();
        (Self { service, http }, secs)
    }

    /// The HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Loads every user's box into the cache (untimed).
    pub fn warm(&self) {
        let engine = self.service.engine();
        for u in 0..engine.n_users() as u32 {
            engine
                .recommend_now(UserId(u), K)
                .expect("warm-up recommend");
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}
