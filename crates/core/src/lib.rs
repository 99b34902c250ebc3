//! **SilkRoad** — stateful layer-4 load balancing in a switching ASIC.
//!
//! Reproduction of Miao, Zeng, Kim, Lee & Yu, *SilkRoad: Making Stateful
//! Layer-4 Load Balancing Fast and Cheap Using Switching ASICs*, SIGCOMM
//! 2017.
//!
//! A [`SilkRoadSwitch`] keeps **all** load-balancing state on-chip:
//!
//! * **ConnTable** ([`conn_table`]) maps a 16-bit *digest* of each
//!   connection to a 6-bit *DIP-pool version* — 28 bits per connection
//!   instead of 440, which is how ten million connections fit in SRAM;
//! * **VIPTable** ([`vip_table`]) maps a VIP to its current pool version
//!   (plus the old version while an update is in flight);
//! * **DIPPoolTable** ([`pool`]) maps `(VIP, version)` to an immutable DIP
//!   pool; versions are allocated from a per-VIP ring by [`version`], with
//!   the paper's *version reuse* optimisation for rolling reboots;
//! * **TransitTable** ([`transit`]) is a 256-byte bloom filter on
//!   transactional memory that remembers *pending* connections so the
//!   3-step update protocol ([`update`]) guarantees per-connection
//!   consistency despite the slow (~200 K/s) software insertion path.
//!
//! The data plane ([`dataplane`]) and control plane ([`control`]) are glued
//! together by [`switch::SilkRoadSwitch`]; [`memory`] carries the analytic
//! SRAM model behind Figures 12 and 14.
//!
//! # Quick example
//!
//! ```
//! use silkroad::{SilkRoadConfig, SilkRoadSwitch, PoolUpdate};
//! use sr_types::{Addr, Dip, Vip, Nanos, PacketMeta, FiveTuple};
//!
//! let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
//! let vip = Vip(Addr::v4(20, 0, 0, 1, 80));
//! sw.add_vip(vip, vec![Dip(Addr::v4(10, 0, 0, 1, 20)), Dip(Addr::v4(10, 0, 0, 2, 20))])
//!     .unwrap();
//!
//! let conn = FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 1234), Addr::v4(20, 0, 0, 1, 80));
//! let t0 = Nanos::ZERO;
//! let d1 = sw.process_packet(&PacketMeta::syn(conn), t0).dip.unwrap();
//!
//! // A DIP-pool update in flight never remaps the existing connection.
//! sw.request_update(vip, PoolUpdate::Add(Dip(Addr::v4(10, 0, 0, 3, 20))), t0).unwrap();
//! sw.advance(Nanos::from_millis(50));
//! let d2 = sw
//!     .process_packet(&PacketMeta::data(conn, 1460), Nanos::from_millis(50))
//!     .dip
//!     .unwrap();
//! assert_eq!(d1, d2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn_table;
pub mod control;
pub mod dataplane;
pub mod engine;
pub mod health;
pub mod memory;
pub mod pool;
pub mod stats;
pub mod switch;
pub mod transit;
pub mod update;
pub mod version;
pub mod vip_table;

pub use config::{SilkRoadConfig, SYN_REDIRECT_DELAY};
pub use dataplane::{BloomHashes, DataPath, ForwardDecision, HashedKey, KeyHasher, PacketKey};
pub use engine::{EngineOptions, FlowSteering, MultiPipeSwitch, Pipe, StreamStats};
pub use health::{HealthChecker, HealthConfig};
pub use pool::{DipPool, PoolUpdate};
pub use stats::SwitchStats;
pub use switch::SilkRoadSwitch;
pub use update::UpdatePhase;
