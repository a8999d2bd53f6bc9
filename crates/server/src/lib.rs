//! Zero-dependency HTTP serving tier for DBSVEC engines.
//!
//! Everything here is `std`-only, in the spirit of the workspace's
//! hand-rolled JSON and Prometheus exposition: [`http`] parses and frames
//! HTTP/1.1 by hand with typed errors, [`router`] owns the sharded
//! multi-model state (per-shard `Mutex<Engine>` + metrics; the engine
//! owns the optional quality monitor), [`server`] runs the bounded
//! thread pool with graceful, snapshot-persisting shutdown, and [`trace`]
//! keeps the tail-sampling flight recorder behind `GET /debug/requests`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dbsvec_server::{Router, Server, ServerConfig, ShutdownFlag};
//!
//! let mut router = Router::new();
//! router.load_model(std::path::Path::new("model.dbm"), 4, None).unwrap();
//! let server = Server::bind(Arc::new(router), ServerConfig::default()).unwrap();
//! let shutdown = ShutdownFlag::new();
//! shutdown.install_signal_handlers();
//! let report = server
//!     .run(&shutdown, &mut dbsvec_obs::NoopObserver)
//!     .unwrap();
//! eprintln!("served {} requests", report.requests);
//! ```

pub mod http;
pub mod router;
pub mod server;
pub mod trace;

pub use http::{
    read_request, write_response, HttpError, Request, DEFAULT_MAX_BODY_BYTES, MAX_HEADER_BYTES,
};
pub use router::{point_shard, ModelEntry, Reply, RouteCost, RouteError, Router};
pub use server::{Server, ServerConfig, ServerReport, ShutdownFlag};
pub use trace::{FlightRecorder, RequestTrace};
