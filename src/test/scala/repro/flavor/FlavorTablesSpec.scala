package repro.flavor

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{Oracle, SparkSpec}

/** Spark-side flavor tables, cross-checked against the driver universe and
  * the DuckDB oracle.
  */
class FlavorTablesSpec extends AnyFunSuite with SparkSpec {

  private lazy val u = FlavorGen.universe()
  private lazy val ingredients = FlavorTables.ingredients(spark, u).cache()
  private lazy val profiles = FlavorTables.profiles(spark, u).cache()
  private lazy val pairShared = FlavorTables.pairShared(profiles).cache()

  test("ingredients table has one row per ingredient") {
    assert(ingredients.count() == u.size)
  }

  test("ingredients table columns round-trip the universe") {
    val rows = ingredients.collect().map(r =>
      (r.getInt(0), (r.getString(1), r.getString(2), r.getBoolean(3), r.getBoolean(4)))).toMap
    for (ing <- u.ingredients)
      assert(rows(ing.id) == ((ing.name, ing.category, ing.isCompound, ing.isCore)))
  }

  test("Spark-pooled compound profiles equal driver-side unions") {
    val sparkProfiles = profiles.collect()
      .groupBy(_.getInt(0)).view.mapValues(_.map(_.getInt(1)).toSet).toMap
    for (ing <- u.ingredients) {
      val got = sparkProfiles.getOrElse(ing.id, Set.empty)
      assert(got == ing.profile, s"profile mismatch for '${ing.name}'")
      if (ing.isCompound) {
        val union = ing.constituents.flatMap(c => u.byId(c).profile).toSet
        assert(got == union, s"compound '${ing.name}' is not the union of its constituents")
      }
    }
  }

  test("profiles collect in the universe's ingredient and profile order") {
    val got = profiles.collect().map(r => (r.getInt(0), r.getInt(1))).toVector
    assert(got == u.ingredients.flatMap(i => i.profile.toSeq.map(m => (i.id, m))))
  }

  test("profiles table has no duplicate (ingredient, molecule) rows") {
    assert(profiles.count() == profiles.distinct().count())
  }

  test("pairShared is strictly upper-triangular") {
    assert(pairShared.filter(col("ing_a") >= col("ing_b")).count() == 0)
  }

  test("pairShared counts match the driver overlap matrix") {
    val rows = pairShared.collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getInt(2)).toMap
    val rng = new scala.util.Random(3)
    var nonZeroChecked = 0
    for (_ <- 1 to 500) {
      val a = rng.nextInt(u.size); val b = rng.nextInt(u.size)
      if (a < b) {
        val expected = u.sharedCount(a, b)
        assert(rows.getOrElse((a, b), 0) == expected, s"pair ($a,$b)")
        if (expected > 0) nonZeroChecked += 1
      }
    }
    assert(nonZeroChecked > 50) // the sample actually exercised the table
  }

  test("pairShared never contains zero-overlap rows") {
    assert(pairShared.filter(col("shared") <= 0).count() == 0)
  }

  test("pairShared agrees with the DuckDB oracle on a sub-universe") {
    // Restrict to 60 ingredients to keep the oracle insert small.
    val sub = profiles.filter(col("ing_id") < 60)
    val got = FlavorTables.pairShared(sub)
      .select(col("ing_a").cast("int"), col("ing_b").cast("int"),
              col("shared").cast("int"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(a.ing_id AS INT) AS ing_a, CAST(b.ing_id AS INT) AS ing_b,
        |       CAST(COUNT(*) AS INT) AS shared
        |FROM prof a JOIN prof b
        |  ON a.molecule = b.molecule
        | AND CAST(a.ing_id AS INT) < CAST(b.ing_id AS INT)
        |GROUP BY 1, 2""".stripMargin,
      "prof" -> sub,
    )
  }

  test("empty-profile additives never appear in pairShared") {
    val emptyIds = u.ingredients
      .filter(i => FlavorGen.ProfileFreeAdditives(i.name)).map(_.id).toSet
    val hits = pairShared
      .filter(col("ing_a").isin(emptyIds.toSeq: _*) ||
              col("ing_b").isin(emptyIds.toSeq: _*))
      .count()
    assert(hits == 0)
  }

  /** A hand-built universe of basic ingredients with the given profiles. */
  private def tiny(profiles: Set[Int]*): FlavorUniverse =
    FlavorUniverse(profiles.toVector.zipWithIndex.map { case (p, id) =>
      IngredientDef(id, s"ing $id", "Additive", isCompound = false, Vector.empty, p, isCore = false)
    })

  for ((name, tu) <- Seq(
         "one ingredient" -> tiny(Set(1, 2, 3)),
         "only empty profiles" -> tiny(Set.empty, Set.empty, Set.empty),
         "two disjoint profiles" -> tiny(Set(1, 2), Set(3, 4))))
    test(s"degenerate universe, $name: no pairs, reference schema, every profile row") {
      val prof = FlavorTables.profiles(spark, tu)
      val expected = tu.ingredients.flatMap(i => i.profile.toSeq.map(m => (i.id, m)))
      assert(prof.collect().map(r => (r.getInt(0), r.getInt(1))).toVector == expected)
      val got = FlavorTables.pairShared(spark, tu)
      val reference = FlavorTables.pairShared(prof)
      def fields(df: DataFrame) = df.schema.fields.map(f => (f.name, f.dataType, f.nullable)).toSeq
      assert(fields(got) == fields(reference))
      assert(got.count() == 0)
      assert(reference.count() == 0)
    }
}
