package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Regenerates paper Fig 2 (as a table): ingredient-category composition
  * of recipes per region, and checks the paper's qualitative claims.
  */
class CategoryCompositionBench extends AnyFunSuite with SparkSpec {

  private lazy val p = Pipeline.get(spark, scale = 1.0)
  private lazy val rows = Experiments.categoryComposition(p)
  private lazy val shares: Map[String, Map[String, Double]] =
    rows.groupBy(_.region).view
      .mapValues(_.map(c => c.category -> c.share).toMap).toMap

  test("FIG 2 — category composition heatmap (tabulated)") {
    println("\n" + Experiments.renderFig2(rows))
    assert(shares.size >= 23)
  }

  test("WORLD usage is led by the broad categories (paper II.A)") {
    val world = shares("WORLD")
    val top7 = world.toVector.sortBy(-_._2).take(7).map(_._1).toSet
    // Paper: Vegetable, Spice, Dairy, Herb, Plant, Meat and Fruit are most
    // frequent at the aggregate level.
    val paperTop = Set("Vegetable", "Spice", "Dairy", "Herb", "Plant", "Meat", "Fruit")
    assert((top7 intersect paperTop).size >= 4,
           s"our top-7 $top7 shares too little with the paper's $paperTop")
  }

  test("FRA, BRI and SCND use dairy more prominently than vegetables (paper II.A)") {
    for (reg <- Seq("FRA", "BRI", "SCND")) {
      val s = shares(reg)
      assert(s.getOrElse("Dairy", 0.0) > s.getOrElse("Vegetable", 0.0),
             f"$reg dairy=${s.getOrElse("Dairy", 0.0)}%.3f veg=${s.getOrElse("Vegetable", 0.0)}%.3f")
    }
  }

  test("WORLD uses vegetables more prominently than dairy (the general trend)") {
    val w = shares("WORLD")
    assert(w("Vegetable") > w("Dairy"))
  }

  test("INSC, AFR, ME and CBN are the predominant spice users (paper II.A)") {
    val worldSpice = shares("WORLD").getOrElse("Spice", 0.0)
    for (reg <- Seq("INSC", "AFR", "ME", "CBN")) {
      val s = shares(reg).getOrElse("Spice", 0.0)
      assert(s > 1.4 * worldSpice, f"$reg spice=$s%.3f world=$worldSpice%.3f")
    }
  }
}
