package repro.graph

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Synthetic temporal bipartite graph generator.
  *
  * The paper evaluates on 11 KONECT datasets (Table 3) that are not shipped
  * with this repository; we substitute deterministic synthetic graphs whose
  * *shape* mirrors each dataset: the |U| : |L| : |E| ratios, a power-law
  * degree skew on both layers, and the time span in days are all preserved
  * at a reduced scale (see [[Datasets]]). Temporal butterflies only occur
  * when several vertices interact within the duration threshold, so the
  * generator mixes:
  *
  *   - background edges: zipf-distributed endpoints, uniform timestamps,
  *   - community bursts: a small group of upper vertices hitting a small
  *     group of lower vertices within a short time window — the synthetic
  *     analogue of trending items / co-editing sessions that produce the
  *     butterflies observed on real data.
  *
  * Everything is deterministic in `seed`.
  */
object SynthBipartite {

  final case class Config(
      nU: Int,
      nL: Int,
      nE: Int,
      spanDays: Int,
      burstFrac: Double = 0.45,
      burstUsers: Int = 8,
      burstItems: Int = 4,
      seed: Long = 42L,
  )

  val SecondsPerDay: Long = 86400L

  // Zipf exponent of both layers' degrees, and one burst's length in days.
  private val Alpha = 0.9
  private val BurstWindowDays = 20.0

  /** Cumulative zipf sampler over keys [0, n) with exponent `alpha`. */
  private final class Zipf(n: Int, alpha: Double, rnd: Random) {
    private val cum = new Array[Double](n)
    locally {
      var acc = 0.0
      var k = 0
      while (k < n) { acc += 1.0 / math.pow(k + 1.0, alpha); cum(k) = acc; k += 1 }
    }
    private val total = cum(n - 1)
    def draw(): Int = {
      val i = java.util.Arrays.binarySearch(cum, rnd.nextDouble() * total)
      math.min(if (i >= 0) i else -i - 1, n - 1)
    }
  }

  /** Generate edges sorted by timestamp (ties broken arbitrarily but
    * deterministically). Timestamps are unique-ish at second granularity;
    * equal timestamps are legal input — such edge pairs simply never form
    * temporal butterflies (§ 2, footnote 3).
    */
  def generate(cfg: Config): IndexedSeq[TemporalEdge] = {
    val rnd = new Random(cfg.seed)
    val zu = new Zipf(cfg.nU, Alpha, rnd)
    val zl = new Zipf(cfg.nL, Alpha, rnd)
    val span = cfg.spanDays * SecondsPerDay
    val burstWindow = math.max(1L, (BurstWindowDays * SecondsPerDay).toLong)

    val out = new ArrayBuffer[TemporalEdge](cfg.nE)

    val nBurstEdges = (cfg.nE * cfg.burstFrac).toInt
    // -------- community bursts --------
    var produced = 0
    while (produced < nBurstEdges) {
      val gu = 2 + rnd.nextInt(math.max(1, cfg.burstUsers - 1))
      val gi = 2 + rnd.nextInt(math.max(1, cfg.burstItems - 1))
      val users = Array.fill(gu)(zu.draw().toLong)
      val items = Array.fill(gi)(zl.draw().toLong)
      val t0 = math.max(0L, (rnd.nextDouble() * (span - burstWindow)).toLong)
      var k = 0
      val burstSize = math.min(gu * gi, nBurstEdges - produced)
      while (k < burstSize) {
        val u = users(rnd.nextInt(gu))
        val v = items(rnd.nextInt(gi))
        val t = t0 + (rnd.nextDouble() * burstWindow).toLong
        out += TemporalEdge(u, v, t)
        k += 1; produced += 1
      }
    }
    // -------- background --------
    while (out.size < cfg.nE) {
      val t = (rnd.nextDouble() * span).toLong
      out += TemporalEdge(zu.draw().toLong, zl.draw().toLong, t)
    }

    out.sortBy(_.t).toIndexedSeq
  }
}

/** The catalog of the paper's 11 datasets (Table 3) at a reduced scale.
  *
  * `paper*` fields carry the original statistics from Table 3 so benches can
  * print the paper numbers next to ours. Scaled sizes divide |E|, |U|, |L|
  * by `Div` with small floors so the layer ratios — which drive the
  * wedge-set shape and therefore the relative hardness ordering — survive.
  */
object Datasets {

  final case class Spec(
      key: String,
      entities: String,
      cfg: SynthBipartite.Config,
      paperE: Long,
      paperU: Long,
      paperL: Long,
      paperSpanDays: Double,
  )

  private def scaled(
      key: String, entities: String,
      e: Long, u: Long, l: Long, spanDays: Double,
      burstFrac: Double, burstUsers: Int, burstItems: Int,
      seed: Long): Spec = {
    val nU = math.max(12L, u / Div).toInt
    val nL = math.max(12L, l / Div).toInt
    val nE = math.max(500L, e / Div).toInt
    Spec(key, entities,
      SynthBipartite.Config(
        nU = nU, nL = nL, nE = nE, spanDays = math.max(30, spanDays.toInt),
        burstFrac = burstFrac, burstUsers = burstUsers, burstItems = burstItems,
        seed = seed),
      paperE = e, paperU = u, paperL = l, paperSpanDays = spanDays)
  }

  // Declared before `all`, which reads it while the object initialises.
  private val Div = 256L

  /** All 11 datasets of Table 3, scaled by 1/256 (with floors). */
  val all: Seq[Spec] = Seq(
    scaled("WQ", "user-page",        776458L,     961L,  640482L, 4625.66, 0.45, 6,  4, 101),
    scaled("WN", "user-page",        907499L,    2200L,   35979L, 4857.34, 0.50, 8,  5, 102),
    scaled("SO", "user-post",       1301942L,  545196L,   96680L, 1153.00, 0.40, 6,  4, 103),
    scaled("CU", "tag-publication", 2411819L,  153277L,  731769L, 1203.10, 0.45, 6,  4, 104),
    scaled("BS", "tag-publication", 2555080L,  204673L,  767447L, 7665.43, 0.45, 6,  4, 105),
    scaled("TW", "user-tag",        4664605L,  175214L,  530418L, 1155.34, 0.40, 8,  5, 106),
    scaled("AM", "user-product",    5838041L, 2146057L, 1230915L, 3650.00, 0.40, 6,  4, 107),
    scaled("ER", "user-page",       8349235L,    7816L, 1266349L, 4976.35, 0.50, 10, 5, 108),
    scaled("EP", "user-product",   13668320L,  120492L,  755760L,  504.96, 0.50, 8,  5, 109),
    scaled("LF", "user-band",      19150868L,     992L,  174077L, 3149.77, 0.55, 12, 6, 110),
    scaled("WT", "user-page",      44788448L,   66140L, 5826113L, 5941.22, 0.50, 10, 5, 111),
  )

  def byKey(key: String): Spec =
    all.find(_.key == key).getOrElse(throw new NoSuchElementException(s"unknown dataset $key"))

  /** The default duration threshold of the paper's evaluation: 40 days. */
  val DefaultDeltaSeconds: Long = 40L * SynthBipartite.SecondsPerDay

  /** `days` days in seconds, rejecting negative days and days whose seconds overflow a `Long`. */
  def deltaSecondsOfDays(days: Long): Long = {
    require(days >= 0, s"delta of $days days is negative")
    try Math.multiplyExact(days, SynthBipartite.SecondsPerDay) catch { case _: ArithmeticException =>
      throw new IllegalArgumentException(s"delta of $days days overflows a Long count of seconds") }
  }
}
