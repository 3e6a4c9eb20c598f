package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Variant
import repro.eval.Eval
import repro.graph.Datasets

/** Figure 15-style scalability over random edge subsets {20..100}%,
  * averaged over repetitions, per counting variant.
  */
class ScalabilityBench extends AnyFunSuite {

  private val LimitMs = 30000L
  private val Keys = Seq("CU", "TW")
  private val Fractions = Seq(0.2, 0.4, 0.6, 0.8, 1.0)

  for (key <- Keys)
    test(s"Scalability on $key: time vs |E| fraction") {
      val edges = Eval.edgesOf(Datasets.byKey(key))
      val table = Fractions.map { f =>
        f -> Variant.all.map { v =>
          v.name -> Eval.scalabilityPoint(edges, f, Datasets.DefaultDeltaSeconds,
            LimitMs, v, reps = 2, seed = 17)
        }
      }
      println(s"\n=== Scalability on $key (TLE = ${LimitMs / 1000}s, 2 reps) ===")
      Eval.printTimingTable(
        Seq("|E| frac", "TBC(ms)", "TBC+(ms)", "TBC++(ms)"),
        table.map { case (f, cells) =>
          Seq(f"${(f * 100).toInt}%%") ++ cells.map {
            case (_, Left(s)) => s
            case (_, Right(ms)) => f"$ms%.1f"
          }
        })

      // TBC++ must complete at every fraction; the baseline's cost explodes
      // with |E| while the optimized algorithm stays far ahead — the
      // paper's scalability claim, asserted at the full-size point where
      // timings are no longer noise-dominated.
      val pp = table.map(_._2.collectFirst { case ("plusplus", Right(ms)) => ms }.get)
      assert(pp.length == Fractions.length)
      table.last._2.collectFirst { case ("baseline", Right(ms)) => ms } match {
        case Some(base) => assert(pp.last * 10 < base,
          f"TBC++ (${pp.last}%.1f ms) at least 10x faster than TBC ($base%.1f ms) at 100%%")
        case None => () // baseline TLE'd at full size — an even stronger gap
      }
    }
}
