//! Retrieval algorithms: assign each requested bucket to one of its
//! replicas, minimizing the number of parallel accesses.

pub mod degraded;
pub mod design_theoretic;
pub mod hybrid;
pub mod online;

pub use degraded::{degraded_retrieval, fault_tolerance, DegradedSchedule};
pub use design_theoretic::design_theoretic_retrieval;
pub use fqos_maxflow::RetrievalSchedule;
pub use hybrid::{hybrid_retrieval, max_flow_retrieval};
pub use online::pick_online_device;
