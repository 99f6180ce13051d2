package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.data.Regions
import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Regenerates paper Fig 5 (as a table): top-3 ingredients contributing to
  * each region's observed food pairing, and asserts the paper's structural
  * claim that popular ingredients drive the pairing pattern.
  *
  * The ingredient *names* cannot match the paper (our corpus is synthetic,
  * see DESIGN.md §2); the checked property is that the top contributors
  * are high-popularity ingredients pushing in the cuisine's direction.
  */
class ContributionBench extends AnyFunSuite with SparkSpec {

  private lazy val p = Pipeline.get(spark, scale = 1.0)
  // Signs are the *planted* = paper signs; FoodPairingBench verifies that
  // the observed signs match them.
  private lazy val signs: Map[String, Int] =
    Regions.all.map(r => r.code -> r.zSign).toMap
  private lazy val rows = Experiments.topContributors(p, signs, k = 3)

  test("FIG 5 — top 3 contributing ingredients per region") {
    println("\n" + Experiments.renderFig5(rows, signs))
    assert(rows.size == 22 * 3)
  }

  test("every region has exactly three ranked contributors") {
    for (spec <- Regions.all)
      assert(rows.count(_.region == spec.code) == 3, spec.code)
    assert(rows.forall(r => r.rank >= 1 && r.rank <= 3))
  }

  test("contributions push in the direction of the observed pairing") {
    // For positive cuisines removal of a top contributor lowers N_s
    // (chi < 0); for negative cuisines it raises it (chi > 0).
    for (r <- rows if r.rank == 1)
      assert(r.chi * signs(r.region) < 0, s"${r.region}/${r.ingredient} chi=${r.chi}")
  }

  test("top contributors are popular ingredients (paper: popularity is the key factor)") {
    for (r <- rows)
      assert(r.popularityRank <= 60, // within the popular ~sixth of a ~350-ingredient pool
             s"${r.region}/${r.ingredient} popularity rank ${r.popularityRank}")
    val meanRank = rows.map(_.popularityRank).sum.toDouble / rows.size
    assert(meanRank < 25, f"mean popularity rank $meanRank%.1f")
  }

  test("top-1 contributions are material (>1% change in Ns)") {
    for (r <- rows if r.rank == 1)
      assert(math.abs(r.chi) > 1.0, s"${r.region} chi=${r.chi}")
  }
}
