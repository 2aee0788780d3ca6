//! One import for the common path: `use anatomy::prelude::*;`.
//!
//! Brings in the [`Publish`](crate::Publish) front door, the types its
//! [`Release`](crate::Release) carries, the COUNT-query evaluators (exact
//! ground truth, the anatomy estimator and the generalization estimator
//! by scan; exact counts and anatomy estimates for whole workloads
//! through a [`QueryIndexV2`], the path `anatomy query` and
//! `anatomy serve` run), and the handful of substrate types every
//! program touches (schemas, microdata, page configuration, manifests). Anything rarer stays behind its module
//! path — the prelude is deliberately small so `*`-importing it cannot
//! shadow much.

pub use crate::error::{render_chain, Error};
pub use crate::publish::{Engine, Publish, Release};

pub use anatomy_audit::{
    audit_increment, audit_parts, audit_release, audit_release_for, AuditFailure, AuditReport,
    Stage,
};
pub use anatomy_core::{
    anatomize, AnatomizeConfig, AnatomizedTables, BucketStrategy, Partition, ShardConfig,
};
pub use anatomy_obs::{RunManifest, Span};
pub use anatomy_pool::Pool;
pub use anatomy_query::{
    estimate_anatomy, estimate_anatomy_batch_v2, estimate_generalization, evaluate_exact,
    evaluate_exact_batch_v2, CountQuery, QueryIndexV2, WorkloadSpec,
};
pub use anatomy_storage::{IoCounter, IoStats, PageConfig};
pub use anatomy_tables::{Attribute, Microdata, Schema, Table, TableBuilder, Value};
