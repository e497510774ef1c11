package repro.exp

/** Cardinality scaling between the paper's cluster-scale inputs and this
  * repository's local reproduction (DESIGN.md §3).
  *
  * The paper's unit is "millions of tuples"; ours is "thousands": a
  * paper row of total input 400 (million) maps to 400k/2 = 200k local
  * tuples per side. Duplication factors, balance ratios and win/lose
  * ordering are cardinality-invariant, which is what EXPERIMENTS.md
  * compares.
  */
object Scales {
  /** pareto-z tables: 200 million per input -> 100k per input. */
  val ParetoRows: Long = 100000L
  /** ebird (508M) and cloud (382M) scaled by the same 1/2000. */
  val EbirdRows: Long = 254000L
  val CloudRows: Long = 191000L
  /** ptf_objects: 1198M total -> 299.5k per side. */
  val PtfRows: Long = 299500L
}
