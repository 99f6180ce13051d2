package repro.core

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}

/** The four null models must preserve exactly what the paper says they
  * preserve (Methodology IV.B).
  */
class RandomModelsSpec extends AnyFunSuite with SparkSpec {

  private lazy val p = TestPipeline.get(spark)
  private lazy val prof =
    RandomModels.profile(spark, "GRC", p.recipes, p.ingredients)

  test("profile extracts the exact ingredient set of the cuisine") {
    import spark.implicits._
    val expected = p.recipes.filter(col("region") === "GRC")
      .select("ing_id").distinct().as[Int].collect().toSet
    assert(prof.ingredients.toSet == expected)
  }

  test("profile frequencies match DataFrame counts") {
    val counts = p.recipes.filter(col("region") === "GRC")
      .groupBy("ing_id").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    prof.ingredients.zip(prof.frequencies).foreach { case (ing, f) =>
      assert(counts(ing) == f, s"ingredient $ing")
    }
  }

  test("profile recipe sizes match the real size distribution") {
    val sizes = p.recipes.filter(col("region") === "GRC")
      .groupBy("recipe_id").count().collect().map(_.getLong(1).toInt)
    assert(prof.recipeSizes.sorted.toSeq == sizes.sorted.toSeq)
  }

  test("profile categories agree with the ingredient table") {
    val cats = p.ingredients.collect().map(r => r.getInt(0) -> r.getString(2)).toMap
    prof.ingredients.zip(prof.categories).foreach { case (ing, c) =>
      assert(cats(ing) == c)
    }
  }

  test("profile recipeCategories align with recipe sizes") {
    assert(prof.recipeCategories.map(_.length).toSeq == prof.recipeSizes.toSeq)
  }

  test("sampling is deterministic per (region, model, seed)") {
    val a = RandomModels.sampleRows(prof, RandomModels.Frequency, 50, seed = 3L)
    val b = RandomModels.sampleRows(prof, RandomModels.Frequency, 50, seed = 3L)
    assert(a == b)
    val c = RandomModels.sampleRows(prof, RandomModels.Frequency, 50, seed = 4L)
    assert(a != c)
  }

  test("every model only uses the cuisine's ingredient set") {
    val set = prof.ingredients.toSet
    for (m <- RandomModels.AllModels) {
      val rows = RandomModels.sampleRows(prof, m, 200)
      assert(rows.forall(r => set(r._3)), m.name)
    }
  }

  test("every model labels rows as region@model") {
    for (m <- RandomModels.AllModels) {
      val rows = RandomModels.sampleRows(prof, m, 5)
      assert(rows.forall(_._1 == s"GRC@${m.name}"), m.name)
    }
  }

  test("every model keeps ingredients distinct within a recipe") {
    for (m <- RandomModels.AllModels) {
      val rows = RandomModels.sampleRows(prof, m, 300)
      rows.groupBy(_._2).foreach { case (rid, rs) =>
        assert(rs.map(_._3).distinct.size == rs.size, s"${m.name} recipe $rid")
      }
    }
  }

  test("every model draws sizes from the empirical size support") {
    val support = prof.recipeSizes.toSet
    for (m <- RandomModels.AllModels) {
      val bySize = RandomModels.sampleRows(prof, m, 300).groupBy(_._2)
        .view.mapValues(_.size).values.toSet
      assert(bySize.subsetOf(support), s"${m.name}: sizes $bySize ⊄ $support")
    }
  }

  test("uniform model visits rare ingredients far more than the real cuisine") {
    // In the uniform model every ingredient is equally likely, so the
    // bottom-half of the popularity ranking takes ~half the slots.
    val rows = RandomModels.sampleRows(prof, RandomModels.RandomUniform, 2000)
    val rare = prof.ingredients.zip(prof.frequencies).sortBy(_._2)
      .take(prof.ingredients.length / 2).map(_._1).toSet
    val share = rows.count(r => rare(r._3)).toDouble / rows.size
    assert(share > 0.35, f"rare-share $share%.3f")
  }

  test("frequency model reproduces the empirical frequencies") {
    val rows = RandomModels.sampleRows(prof, RandomModels.Frequency, 5000)
    val total = prof.frequencies.sum.toDouble
    val counts = rows.groupBy(_._3).view.mapValues(_.size).toMap
    val sampleTotal = rows.size.toDouble
    // Compare the sampled share of the top-10 ingredients with the real share.
    val top = prof.ingredients.zip(prof.frequencies).sortBy(-_._2).take(10)
    for ((ing, f) <- top) {
      val real = f / total
      val got = counts.getOrElse(ing, 0) / sampleTotal
      assert(math.abs(got - real) < 0.35 * real + 0.01,
             f"ingredient $ing real=$real%.4f sampled=$got%.4f")
    }
  }

  test("category model preserves the per-recipe category multiset") {
    val catOf = prof.ingredients.zip(prof.categories).toMap
    val rows = RandomModels.sampleRows(prof, RandomModels.Category, 400)
    val templates = prof.recipeCategories.map(_.sorted.toSeq).toSet
    rows.groupBy(_._2).foreach { case (rid, rs) =>
      val cats = rs.map(r => catOf(r._3)).sorted
      assert(templates.contains(cats), s"recipe $rid categories $cats not a real template")
    }
  }

  test("freq_category model also preserves the category multiset") {
    val catOf = prof.ingredients.zip(prof.categories).toMap
    val rows = RandomModels.sampleRows(prof, RandomModels.FrequencyCategory, 400)
    val templates = prof.recipeCategories.map(_.sorted.toSeq).toSet
    rows.groupBy(_._2).foreach { case (rid, rs) =>
      assert(templates.contains(rs.map(r => catOf(r._3)).sorted))
    }
  }

  test("freq_category model is frequency-biased within categories") {
    val rows = RandomModels.sampleRows(prof, RandomModels.FrequencyCategory, 3000)
    val counts = rows.groupBy(_._3).view.mapValues(_.size).toMap
    // The most popular ingredient should be sampled much more often than a
    // same-category ingredient from the tail.
    val byCat = prof.ingredients.indices.groupBy(prof.categories(_))
    val (cat, idxs) = byCat.maxBy(_._2.size)
    val sortedByFreq = idxs.sortBy(i => -prof.frequencies(i))
    val top = prof.ingredients(sortedByFreq.head)
    val bottom = prof.ingredients(sortedByFreq.last)
    assert(counts.getOrElse(top, 0) > counts.getOrElse(bottom, 0),
           s"category $cat top=$top bottom=$bottom")
  }

  test("sampleRows reproduces the pinned stream of every model") {
    // Seeds must reproduce bit for bit, so these literals pin every model's
    // RNG call order. Six ingredients in two categories, skewed frequencies,
    // three templates.
    val tiny = RandomModels.CuisineProfile(
      region = "TST",
      ingredients = Array(101, 102, 103, 201, 202, 203),
      frequencies = Array(50L, 8L, 1L, 30L, 4L, 2L),
      categories = Array("Spice", "Spice", "Spice", "Vegetable", "Vegetable", "Vegetable"),
      recipeSizes = Array(2, 3, 4),
      recipeCategories = Array(
        Array("Spice", "Vegetable"),
        Array("Vegetable", "Spice", "Spice"),
        Array("Spice", "Vegetable", "Vegetable", "Vegetable")),
    )
    val pinned = Map[RandomModels.Model, Vector[Vector[Int]]](
      RandomModels.RandomUniform -> Vector(Vector(103, 201), Vector(102, 201, 202),
        Vector(103, 201, 102, 203), Vector(103, 203, 101, 102), Vector(101, 102, 203),
        Vector(103, 203), Vector(102, 103, 203, 201), Vector(203, 201, 102, 202)),
      RandomModels.Frequency -> Vector(Vector(101, 201, 203, 102), Vector(101, 201, 102),
        Vector(101, 202), Vector(101, 201), Vector(101, 202, 102), Vector(101, 201, 203, 102),
        Vector(101, 201), Vector(101, 102, 201, 203)),
      RandomModels.Category -> Vector(Vector(101, 203), Vector(103, 203, 201, 202),
        Vector(103, 203), Vector(101, 201, 202, 203), Vector(202, 101, 103), Vector(102, 203),
        Vector(103, 201, 203, 202), Vector(201, 103, 102)),
      RandomModels.FrequencyCategory -> Vector(Vector(101, 201, 202, 203), Vector(101, 201),
        Vector(101, 201, 202, 203), Vector(101, 203), Vector(201, 102, 101), Vector(101, 201),
        Vector(101, 201, 202, 203), Vector(201, 102, 101)),
    )
    for (m <- RandomModels.AllModels) {
      val expected = pinned(m).zipWithIndex.flatMap { case (ings, r) =>
        ings.map(i => (s"TST@${m.name}", r.toLong, i))
      }
      assert(RandomModels.sampleRows(tiny, m, 8, seed = 11L) == expected, m.name)
    }
  }

  test("sample draws sampleRows' recipes in order, each sorted") {
    for (m <- RandomModels.AllModels; seed <- Seq(3L, 11L)) {
      val rows = RandomModels.sampleRows(prof, m, 300, seed)
      val expected = (0L until 300L).map(r => rows.filter(_._2 == r).map(_._3).sorted)
      assert(RandomModels.sample(prof, m, 300, seed).map(_.toVector).toVector == expected, s"${m.name}, seed $seed")
    }
  }

  test("the number of generated recipes is exactly nRecipes for all models") {
    for (m <- RandomModels.AllModels) {
      val rows = RandomModels.sampleRows(prof, m, 123)
      assert(rows.map(_._2).distinct.size == 123, m.name)
    }
  }
}
