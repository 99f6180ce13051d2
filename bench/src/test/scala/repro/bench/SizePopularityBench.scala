package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Regenerates paper Fig 3 (as tables): recipe-size distribution and
  * ingredient-popularity scaling.
  */
class SizePopularityBench extends AnyFunSuite with SparkSpec {

  private lazy val p = Pipeline.get(spark, scale = 1.0)
  private lazy val hist = Experiments.worldSizeHistogram(p)
  private lazy val sizes = Experiments.meanSizes(p)
  private lazy val slopes = Experiments.popularitySlopes(p)

  test("FIG 3a — recipe size distribution") {
    println("\n" + Experiments.renderFig3(hist, sizes, slopes))
    val total = hist.map(_._2).sum.toDouble
    val world = sizes.find(_.region == "WORLD").get
    assert(world.meanSize > 8.3 && world.meanSize < 9.7,
           f"paper: average of nine ingredients per recipe; ours ${world.meanSize}%.2f")
    // Bounded, thin-tailed distribution.
    val over15 = hist.filter(_._1 > 15).map(_._2).sum / total
    assert(over15 < 0.02, f"P(n>15)=$over15%.4f not thin-tailed")
    assert(hist.map(_._1).max <= 25)
  }

  test("FIG 3b — ingredient popularity scaling is consistent across cuisines") {
    val vals = slopes.map(_._2)
    assert(vals.forall(s => s < -0.3 && s > -2.5))
    assert(vals.max - vals.min < 1.0,
           f"spread ${vals.max - vals.min}%.3f — paper: exceptionally consistent scaling")
  }
}
