package repro.jobs

import repro.eval.Eval

/** Reproduces Table 3 (dataset summary): generates the scaled synthetic
  * counterpart of each of the 11 datasets and prints measured |E|, |U|,
  * |L| and time span next to the paper's numbers.
  *
  * spark-submit --class repro.jobs.Table3Job <jar>
  */
object Table3Job {
  def main(args: Array[String]): Unit = Eval.table3()
}
