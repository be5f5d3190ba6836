(** PyPM: pattern matching for AI compilers, and its formal core.

    Umbrella module re-exporting the public API. The layers, bottom-up:

    - {!Symbol}, {!Signature}, {!Term}, {!Subst}, {!Fsubst}: terms over an
      operator signature and the two substitution kinds (section 3.1);
    - {!Guard}, {!Pattern}, {!Wf}, {!Skeleton}: the CorePyPM pattern
      grammar (figure 15), guard arithmetic (section 3.2), well-formedness,
      and branch-string extraction for the static analysis;
    - {!Analysis}: the static pattern-library linter — subsumption,
      overlap witnesses, shadowing under ordered-alternate semantics, and
      guard satisfiability over the attribute-interval fragment;
    - {!Declarative}, {!Derivation}, {!Machine}, {!Matcher}, {!Enumerate},
      {!Outcome}: the two semantics (figures 16-18), proof objects, the
      production matcher and the all-witness oracle;
    - {!Dtype}, {!Shape}, {!Ty}, {!Infer}, {!Attrs}: the tensor attribute
      domain;
    - {!Graph}, {!Term_view}: the DLCB-style computation-graph IR;
    - {!Resilience}: transaction journal re-export, per-pattern circuit
      breakers, and deterministic fault injection for the pass;
    - {!Rule}, {!Program}, {!Pass}, {!Eqsat}, {!Partition}: rewrite rules,
      the greedy rewrite pass (section 2.4), the cost-guided
      equality-saturation post-phase behind the pass's [Egraph] engine,
      and directed graph partitioning (section 4.2);
    - {!Kernel}, {!Cost}, {!Exec}: the library-kernel registry and the GPU
      cost model / execution simulator;
    - {!Std_ops}, {!Corpus}: the tensor operator vocabulary and the paper's
      pattern corpus;
    - {!Ast}, {!Elaborate}, {!Dsl}: the frontend AST, its elaboration to
      the core calculus, and the OCaml combinator embedding;
    - {!Lexer}, {!Parser}, {!Surface}: the textual surface language;
    - {!Codec}, {!Protocol}: the portable serialized pattern-binary and
      graph formats, and the serve wire protocol;
    - {!Cache}, {!Pool}, {!Server}, {!Load}: the resident optimization
      service — content-addressed result cache, domain worker pool,
      Unix-socket server, and the load harness;
    - {!Rng}, {!Transformer}, {!Vision}, {!Zoo}: the synthetic benchmark
      model suites;
    - {!Srng}, {!Fuzz}: the splittable PRNG and the differential fuzzing
      driver cross-checking every engine against the declarative oracle. *)

module Symbol = Pypm_term.Symbol
module Signature = Pypm_term.Signature
module Term = Pypm_term.Term
module Subst = Pypm_term.Subst
module Fsubst = Pypm_term.Fsubst
module Guard = Pypm_pattern.Guard
module Pattern = Pypm_pattern.Pattern
module Skeleton = Pypm_pattern.Skeleton
module Wf = Pypm_pattern.Wf
module Analysis = Pypm_analysis.Analysis
module Obs = Pypm_obs.Obs
module Outcome = Pypm_semantics.Outcome
module Declarative = Pypm_semantics.Declarative
module Derivation = Pypm_semantics.Derivation
module Machine = Pypm_semantics.Machine
module Matcher = Pypm_semantics.Matcher
module Enumerate = Pypm_semantics.Enumerate
module Dtype = Pypm_tensor.Dtype
module Shape = Pypm_tensor.Shape
module Ty = Pypm_tensor.Ty
module Infer = Pypm_tensor.Infer
module Attrs = Pypm_tensor.Attrs
module Graph = Pypm_graph.Graph
module Term_view = Pypm_graph.Term_view
module Dot = Pypm_graph.Dot
module Query = Pypm_query.Query
module Egraph = Pypm_egraph.Egraph
module Ematch = Pypm_egraph.Ematch
module Saturate = Pypm_egraph.Saturate
module Resilience = Pypm_resilience.Resilience
module Rule = Pypm_engine.Rule
module Program = Pypm_engine.Program
module Pass = Pypm_engine.Pass
module Eqsat = Pypm_engine.Eqsat
module Term_rewrite = Pypm_engine.Term_rewrite
module Partition = Pypm_engine.Partition
module Kernel = Pypm_kernels.Kernel
module Cost = Pypm_kernels.Cost
module Exec = Pypm_kernels.Exec
module Std_ops = Pypm_patterns.Std_ops
module Corpus = Pypm_patterns.Corpus
module Ast = Pypm_dsl.Ast
module Elaborate = Pypm_dsl.Elaborate
module Dsl = Pypm_dsl.Dsl
module Lexer = Pypm_surface.Lexer
module Parser = Pypm_surface.Parser
module Surface = Pypm_surface.Surface
module Codec = Pypm_serialize.Codec
module Protocol = Pypm_serialize.Protocol
module Cache = Pypm_serve.Cache
module Pool = Pypm_serve.Pool
module Server = Pypm_serve.Server
module Load = Pypm_serve.Load
module Chaos = Pypm_serve.Chaos
module Rng = Pypm_models.Rng
module Transformer = Pypm_models.Transformer
module Vision = Pypm_models.Vision
module Multimodal = Pypm_models.Multimodal
module Zoo = Pypm_models.Zoo
module Srng = Pypm_fuzz.Srng
module Fuzz = Pypm_fuzz.Fuzz

(** The stable embedding surface (parse → lint → prepare → run →
    stats_json) — start here when embedding the optimizer. *)
module Api = Pypm_api
