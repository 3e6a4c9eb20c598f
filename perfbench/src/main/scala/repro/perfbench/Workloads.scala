package repro.perfbench

import repro.graph.{Datasets, SynthBipartite, TemporalEdge}

/** One benchmark workload. Every workload runs every operation, so every
  * end-to-end metric exists on each; the graph shapes and sizes decide
  * which layer dominates.
  *
  * @param dataset     Table-3 dataset whose generator config shapes the inputs
  * @param staticEdges edges of each static graph (TBC++, TBC+, TBE+)
  * @param streamEdges edges of each graph whose first edges form a stream
  *                    or a chunk; more edges over the same time span make
  *                    every window denser
  * @param window      sliding-window size, in edges
  * @param stride      edges per slide
  * @param chunks      stream chunks of the untraced run (see
  *                    [[Inputs.chunks]]), a multiple of
  *                    [[Workload.StaticGraphs]]; more where a chunk is cheap
  * @param sparkEdges  edges of the graph `SparkButterfly.count` runs on
  * @param pinned      TBC++ reference counts for [[Workloads.DefaultSeed]]:
  *                    static graph 0, last window of the last chunk, Spark
  *                    graph
  */
final case class Workload(
    name: String,
    dataset: String,
    staticEdges: Int,
    streamEdges: Int,
    window: Int,
    stride: Int,
    chunks: Int,
    sparkEdges: Int,
    pinned: Map[String, Seq[Long]],
) {
  require(window + Workload.StreamSlides * stride <= streamEdges, s"$name: the stream needs more edges")
  require(chunks % Workload.StaticGraphs == 0, s"$name: chunks must be a multiple of the static graphs")

  def edges(nE: Int, seed: Long): IndexedSeq[TemporalEdge] =
    SynthBipartite.generate(Datasets.byKey(dataset).cfg.copy(nE = nE, seed = seed))
}

object Workload {
  /** Slides in the traced run's stream: enough for a p95 with ten samples
    * beyond it.
    */
  val StreamSlides = 200

  /** Static graphs of the untraced run, each drawn from its own seed. */
  val StaticGraphs = 4

  /** Slides in each chunk of the untraced run: a pass over 16 chunks slides
    * 208 times, enough for a p95.
    */
  val ChunkSlides = 13
}

object Workloads {

  /** Seed the pinned counts belong to. */
  val DefaultSeed = 1L

  /** Seed kept back for checking a later claim on inputs it was not tuned on. */
  val HeldOutSeed = 1001L

  val Delta: Long = Datasets.DefaultDeltaSeconds

  val all: Seq[Workload] = Seq(
    // LF shape: a dozen hub uppers, so a few wedge groups are huge. SetCross
    // and the index dominate counting; per-edge rank counting dominates each
    // slide of the large stride over a dense stream, so STBC+ gains from
    // threads.
    Workload("lf-hub", "LF", staticEdges = 12000, streamEdges = 20000, window = 1000, stride = 50,
      chunks = 16, sparkEdges = 3000,
      pinned = Map(
        "static" -> Seq(268654L, 147487L, 160248L, 274488L, 148808L, 158553L),
        "window" -> Seq(22719L, 10713L, 14207L, 23939L, 11216L, 15337L),
        "spark" -> Seq(16149L, 11860L, 12054L, 16813L, 12118L, 12439L))),
    // WT shape: tens of thousands of small groups, so per-group overhead in
    // wedge generation and buildSides shows; slides of the small stride are
    // so cheap that STBC+'s per-batch pool set-up outweighs the work.
    Workload("wt-spread", "WT", staticEdges = 25000, streamEdges = 50000, window = 2000, stride = 20,
      chunks = 48, sparkEdges = 6000,
      pinned = Map(
        "static" -> Seq(17597L, 13248L, 13875L, 18324L, 13529L, 13808L),
        "window" -> Seq(1907L, 1153L, 1148L, 1874L, 1073L, 1045L),
        "spark" -> Seq(2894L, 2657L, 2660L, 3144L, 2960L, 2794L))),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
