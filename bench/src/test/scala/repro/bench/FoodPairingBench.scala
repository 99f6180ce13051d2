package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.data.Regions
import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Regenerates paper Fig 4 (as a table): the food-pairing Z-score of
  * every region against the four randomized-cuisine models, and asserts
  * the paper's headline claims:
  *
  *  - 16 regions pair positively, 6 negatively (exact region sets);
  *  - no cuisine is indistinguishable from random;
  *  - the ingredient-frequency model reproduces the pairing pattern to a
  *    large extent; the category model does not.
  *
  * Each null model draws the paper's 100,000 random recipes per cuisine.
  */
class FoodPairingBench extends AnyFunSuite with SparkSpec {

  private lazy val p = Pipeline.get(spark, scale = 1.0)
  private lazy val rows = Experiments.foodPairing(p, Experiments.PaperNRand)
  private def byKey = rows.map(r => (r.region, r.model) -> r).toMap

  test("FIG 4 — food pairing Z-scores across 22 world regions") {
    println("\n" + Experiments.renderFig4(rows, Experiments.PaperNRand))
    assert(rows.size == 22 * 4)
  }

  test("the 16 positive and 6 negative regions match the paper exactly") {
    val signs = Experiments.observedSigns(rows)
    val positives = signs.filter(_._2 > 0).keySet
    val negatives = signs.filter(_._2 < 0).keySet
    assert(positives == Regions.positive.toSet,
           s"positive mismatch: extra=${positives -- Regions.positive.toSet} " +
           s"missing=${Regions.positive.toSet -- positives}")
    assert(negatives == Regions.negative.toSet)
  }

  test("no cuisine is indistinguishable from its random counterpart") {
    for (r <- rows if r.model == "random")
      assert(math.abs(r.z) > 5, f"${r.region} |z|=${math.abs(r.z)}%.1f")
  }

  test("ingredient frequency accounts for the food pairing in all cuisines") {
    for (reg <- Experiments.Table1Order) {
      val zRand = byKey((reg, "random")).z
      val zFreq = byKey((reg, "frequency")).z
      // "to a large extent": the residual |Z| is well under half the raw
      // deviation (the remainder is the planted within-recipe tilt).
      assert(math.abs(zFreq) < 0.40 * math.abs(zRand),
             f"$reg zRand=$zRand%.1f zFreq=$zFreq%.1f — frequency model should reproduce pairing")
    }
  }

  test("category composition alone cannot reproduce the food pairing") {
    var reproduced = 0
    for (reg <- Experiments.Table1Order) {
      val zRand = byKey((reg, "random")).z
      val zCat = byKey((reg, "category")).z
      if (math.abs(zCat) < 0.35 * math.abs(zRand)) reproduced += 1
    }
    assert(reproduced <= 4,
           s"category model reproduced pairing in $reproduced/22 regions — paper: unable to reproduce")
  }

  test("frequency+category composite behaves like the frequency model") {
    for (reg <- Experiments.Table1Order) {
      val zRand = byKey((reg, "random")).z
      val zFc = byKey((reg, "freq_category")).z
      assert(math.abs(zFc) < 0.40 * math.abs(zRand), f"$reg zFc=$zFc%.1f zRand=$zRand%.1f")
    }
  }

  test("|Z| ordering roughly follows the paper's Fig 4 ordering") {
    // Spearman rank correlation between planted strength order and observed
    // |Z| order, separately for positive and negative groups.
    def spearman(regs: Vector[String]): Double = {
      val observed = regs.sortBy(r => -math.abs(byKey((r, "random")).z))
      val n = regs.size
      val d = regs.zipWithIndex.map { case (r, i) => val j = observed.indexOf(r); (i - j).toDouble }
      1.0 - 6.0 * d.map(x => x * x).sum / (n * (n * n - 1))
    }
    val sp = spearman(Regions.positive)
    val sn = spearman(Regions.negative)
    println(f"Spearman(|Z|, paper order): positive=$sp%.2f negative=$sn%.2f")
    assert(sp > 0.3, f"positive-group ordering correlation $sp%.2f")
    assert(sn > 0.3, f"negative-group ordering correlation $sn%.2f")
  }
}
