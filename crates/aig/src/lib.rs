//! # eco-aig
//!
//! And-Inverter Graph (AIG) package for the ECO patch engine: the
//! circuit representation on which miters, windows, and patch functions
//! are built (the role ABC's AIG manager plays in the paper).
//!
//! Features:
//!
//! - [`Aig`]: structural hashing, constant folding, balanced
//!   multi-input builders, import/compose.
//! - Traversals: TFI/TFO masks, fanouts, logic levels
//!   (the basis of the paper's structural pruning, Sec. 3.3).
//! - Bit-parallel simulation and exhaustive truth tables.
//! - [`Cube`]/[`Sop`] covers and [`factor_sop`] algebraic factoring
//!   (the synthesis step after cube enumeration, Sec. 3.5).
//! - [`Aig::substitute`]: applying patch functions at target nodes.
//! - ASCII AIGER (`aag`) and DOT interchange.
//!
//! # Examples
//!
//! ```
//! use eco_aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let f = aig.xor(a, b);
//! aig.add_output(f);
//! assert_eq!(aig.eval(&[true, false]), vec![true]);
//! assert_eq!(aig.eval(&[true, true]), vec![false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
mod cone;
mod cube;
mod factor;
mod fraig;
mod isop;
mod lit;
mod sim;
mod subst;
mod topo;
mod tt;
mod write;

pub use aig::{Aig, AigNode};
pub use cone::Cone;
pub use cube::{Cube, CubeLit, Sop};
pub use factor::factor_sop;
pub use fraig::{CandidateClasses, PatternPool};
pub use isop::isop_between;
pub use lit::{AigLit, NodeId};
pub use sim::{TooManyInputsError, MAX_EXHAUSTIVE_INPUTS};
pub use subst::{NodePatch, SubstituteCycleError, SubstituteResult};
pub use tt::TruthTable;
pub use write::ParseAagError;
