//! Stage 1 of the pipeline: dependence admission.
//!
//! The hyperplane method and Algorithm 1 take a constant dependence set
//! `D` as input. A nest enters `D` either directly, when its accesses
//! induce uniform dependences, or through certified uniformization
//! (`LC016`): its variable-distance dependences are folded into a
//! synthesized constant basis whose cover the Presburger core proves.
//! [`Admission::build`] is the one place that decides which; every
//! later stage reads the [`Admission`] it returns.

use crate::pipeline::PipelineError;
use loom_check::Diagnostic;
use loom_loopir::{vector_set, DepOptions, Dependence, LoopNest, Point};
use loom_obs::Recorder;

/// A nest's admitted dependences: computed once per nest and read by
/// the time-function search, statement offsets, partitioning, the
/// symbolic cost engine, the explorer and the CLI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Every dependence record, intra-iteration records included (they
    /// drive statement offsets). For a folded nest these are the fold's
    /// records.
    pub records: Vec<Dependence>,
    /// The dependence vector set `D`: distinct nonzero vectors in
    /// lexicographic order.
    pub vectors: Vec<Point>,
    /// The `LC016` cover certificate and `LC017` tightness diagnostics
    /// of a folded nest; empty exactly when the nest is uniform.
    pub certificate: Vec<Diagnostic>,
}

impl Admission {
    /// Admit `nest`: run the strict extractor once with intra-iteration
    /// records, and only when it rejects the nest as non-uniform and
    /// `uniformize` is set, fold and certify it once. An uncertifiable
    /// nest is [`PipelineError::StaticCheck`] with the full report
    /// (`Unknown` verdicts reject too); with `uniformize` off it stays
    /// the extractor's [`PipelineError::Deps`] rejection. The work runs
    /// under a `pipeline.deps` span, and folding adds the proof counts
    /// as `check.uniformize.*` counters.
    pub fn build(
        nest: &LoopNest,
        opts: DepOptions,
        uniformize: bool,
        recorder: &Recorder,
    ) -> Result<Admission, PipelineError> {
        let _s = recorder.span("pipeline.deps");
        let opts = DepOptions {
            include_intra: true,
            ..opts
        };
        match loom_loopir::extract_dependences(nest, opts) {
            Ok(records) => Ok(Admission {
                vectors: vector_set(&records),
                records,
                certificate: Vec::new(),
            }),
            Err(loom_loopir::Error::NonUniform { .. }) if uniformize => {
                let mut stats = loom_check::UniformizeStats::default();
                let admitted = loom_check::admit_uniformized(nest, opts, &mut stats);
                recorder.add("check.uniformize.pairs", stats.pairs_folded);
                recorder.add("check.uniformize.vectors", stats.vectors_synthesized);
                recorder.add("check.uniformize.proofs", stats.proofs);
                recorder.add("check.uniformize.refuted", stats.refuted);
                recorder.add("check.uniformize.unknown", stats.unknown);
                recorder.add("check.uniformize.tightness", stats.tightness_warnings);
                match admitted {
                    Ok((u, certificate)) => Ok(Admission {
                        records: u.deps,
                        vectors: u.vectors,
                        certificate,
                    }),
                    Err(report) => Err(PipelineError::StaticCheck(report)),
                }
            }
            Err(e) => Err(PipelineError::Deps(e)),
        }
    }
}
