//! # mscope-transform — mScopeDataTransformer
//!
//! The multi-stage log transformation pipeline of the paper's §III-B and
//! Fig. 3, faithful stage for stage:
//!
//! 1. **Parsing declaration** ([`declaration_for`], [`ParsingDeclaration`])
//!    — maps every log file to its mScopeParser plus instructions: either
//!    *line-sequence* rules (block formats like Collectl's brief mode) or
//!    *string-token* patterns ([`Pattern`], the in-repo scanf-style engine).
//! 2. **Adding semantics** ([`ParsingDeclaration::advance`]) — the one
//!    parser core: it wraps each log line (or XML entry element) into an
//!    entry of semantic `(field, value)` pairs, consuming a file whole for
//!    batch or poll by poll for [`StreamingTransformer`]; the upgraded
//!    SAR's XML output takes the direct [`XmlMapping`] path. The paper's
//!    annotated XML ([`XmlNode`]) is an on-demand export of these entries
//!    ([`ParsingDeclaration::execute`]).
//! 3. **XMLtoCSV conversion** — bottom-up schema inference over the
//!    entries: column set = union of all field names, column type =
//!    narrowest lattice type admitting every value; produces typed rows
//!    directly ([`ConvertedTable`]). Annotated XML converts through the
//!    same inference ([`convert_xml`]), and CSV is an on-demand export
//!    ([`ConvertedTable::to_csv`]).
//! 4. **Data import** ([`import_rows`], [`import_csv`]) — creates mScopeDB
//!    tables on the fly and batch-loads the tuples, registering monitor /
//!    log-file metadata in the static tables.
//!
//! [`DataTransformer`] orchestrates all four stages over a monitor
//! manifest, fanning the CPU-bound parse/convert stages out across scoped
//! worker threads ([`RunOptions`]) while keeping warehouse loads serial and
//! deterministic.
//!
//! ## Example
//!
//! ```
//! use mscope_db::Database;
//! use mscope_monitors::MonitorSuite;
//! use mscope_ntier::{Simulator, SystemConfig};
//! use mscope_sim::SimDuration;
//! use mscope_transform::DataTransformer;
//!
//! let mut cfg = SystemConfig::rubbos_baseline(40);
//! cfg.duration = SimDuration::from_secs(3);
//! cfg.warmup = SimDuration::from_secs(1);
//! let out = Simulator::new(cfg).map_err(Box::<dyn std::error::Error>::from)?.run();
//! let art = MonitorSuite::standard(&out.config).render(&out);
//!
//! let mut db = Database::new();
//! let report = DataTransformer::from_manifest(&art.manifest).run(&art.store, &mut db)?;
//! assert!(report.entries > 0);
//! assert!(db.table("event_apache").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod csv;
pub mod declare;
mod error;
mod import;
mod parsers;
mod pattern;
mod pipeline;
mod stream;
mod xml;

pub use convert::{convert_xml, ConvertedTable};
pub use csv::{parse_csv, quote_field, write_csv, CsvError};
pub use declare::{
    BlockSpec, Fields, LineMatcher, ParseState, ParserKind, ParserSpec, ParsingDeclaration,
    XmlMapping,
};
pub use error::TransformError;
pub use import::{import_csv, import_rows, normalize_cell, parse_cell};
pub use parsers::{
    apache_event_spec, cjdbc_event_spec, collectl_brief_spec, collectl_csv_spec, declaration_for,
    generic_kv_spec, iostat_spec, mysql_event_spec, sar_mem_spec, sar_net_spec, sar_text_spec,
    sar_xml_mapping, table_name, tomcat_event_spec,
};
pub use pattern::{looks_like_wallclock, timestamp_suffix_tokens, Pattern, Tok};
pub use pipeline::{DataTransformer, RunOptions, TransformReport};
pub use stream::StreamingTransformer;
pub use xml::{escape, parse as parse_xml, unescape, XmlError, XmlNode};
