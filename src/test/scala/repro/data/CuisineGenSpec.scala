package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.flavor.FlavorGen

/** Unit tests for the synthetic CulinaryDB generator. Full-scale corpus is
  * generated once (driver-side, no Spark) and shared across tests.
  */
object CuisineGenSpec {
  lazy val universe = FlavorGen.universe()
  lazy val full: Vector[RecipeRow] = CuisineGen.generate(universe)
  lazy val byRegion: Map[String, Vector[RecipeRow]] = full.groupBy(_.region)
}

class CuisineGenSpec extends AnyFunSuite {
  import CuisineGenSpec._

  test("full corpus has exactly 45772 recipes") {
    assert(full.size == 45772)
  }

  test("every region generates exactly its Table-1 recipe count") {
    for (spec <- Regions.generated)
      assert(byRegion(spec.code).size == spec.recipes, spec.code)
  }

  test("every region uses exactly its Table-1 unique ingredient count") {
    for (spec <- Regions.generated) {
      val unique = byRegion(spec.code).flatMap(_.ingredientIds).distinct.size
      assert(unique == spec.ingredients, s"${spec.code}: $unique != ${spec.ingredients}")
    }
  }

  test("recipe ids are globally unique") {
    assert(full.map(_.recipeId).distinct.size == full.size)
  }

  test("ingredients within a recipe are distinct") {
    for (r <- full.take(5000))
      assert(r.ingredientIds.distinct.size == r.ingredientIds.size, r.recipeId)
  }

  test("recipe sizes are within [2, 22]") {
    assert(full.forall(r => r.ingredientIds.size >= 2 && r.ingredientIds.size <= 22))
  }

  test("mean recipe size is about nine (Fig 3a)") {
    val mean = full.map(_.ingredientIds.size).sum.toDouble / full.size
    assert(mean > 8.3 && mean < 9.7, f"mean=$mean%.2f")
  }

  test("recipe size distribution is thin-tailed") {
    val sizes = full.map(_.ingredientIds.size)
    val over15 = sizes.count(_ > 15).toDouble / sizes.size
    assert(over15 < 0.02, f"P(n>15)=$over15%.4f")
  }

  test("ingredient ids reference the universe") {
    assert(full.forall(_.ingredientIds.forall(i => i >= 0 && i < universe.size)))
  }

  test("generation is deterministic") {
    val again = CuisineGen.generateRegion(universe, Regions.byCode("KOR"))
    assert(again == byRegion("KOR"))
  }

  test("concurrent generation equals generating the regions one by one, in order") {
    for (seed <- Seq(7L, 3L); scale <- Seq(1.0, 0.1)) {
      val parallel = if (seed == 7L && scale == 1.0) full else CuisineGen.generate(universe, scale, seed)
      val serial = Regions.generated.flatMap(CuisineGen.generateRegion(universe, _, scale, seed))
      assert(parallel == serial, s"seed $seed, scale $scale")
    }
  }

  test("different seeds give different corpora") {
    val other = CuisineGen.generateRegion(universe, Regions.byCode("KOR"), seed = 99L)
    assert(other != byRegion("KOR"))
  }

  test("popularity is strongly skewed (Fig 3b)") {
    for (code <- Seq("ITA", "USA", "KOR")) {
      val freq = byRegion(code).flatMap(_.ingredientIds)
        .groupBy(identity).view.mapValues(_.size).values.toVector.sorted.reverse
      val top = freq.head.toDouble
      val median = freq(freq.size / 2).toDouble
      assert(top / median > 10, s"$code top/median=${top / median}")
    }
  }

  test("popular ingredients in positive regions are mostly core-flavored") {
    val freq = byRegion("ITA").flatMap(_.ingredientIds)
      .groupBy(identity).view.mapValues(_.size).toVector.sortBy(-_._2)
    val top20 = freq.take(20).map(_._1)
    val coreShare = top20.count(universe.byId(_).isCore).toDouble / top20.size
    assert(coreShare > 0.7, s"coreShare=$coreShare")
  }

  test("popular ingredients in negative regions are mostly idiosyncratic") {
    val freq = byRegion("SCND").flatMap(_.ingredientIds)
      .groupBy(identity).view.mapValues(_.size).toVector.sortBy(-_._2)
    val top20 = freq.take(20).map(_._1)
    val coreShare = top20.count(universe.byId(_).isCore).toDouble / top20.size
    assert(coreShare < 0.3, s"coreShare=$coreShare")
  }

  test("spice-heavy region emphasises Spice ingredients (Fig 2)") {
    def spiceShare(code: String): Double = {
      val slots = byRegion(code).flatMap(_.ingredientIds)
      slots.count(universe.byId(_).category == "Spice").toDouble / slots.size
    }
    assert(spiceShare("INSC") > 1.5 * spiceShare("CAN"),
           f"INSC=${spiceShare("INSC")}%.3f CAN=${spiceShare("CAN")}%.3f")
  }

  test("dairy-heavy region emphasises Dairy ingredients (Fig 2)") {
    def dairyShare(code: String): Double = {
      val slots = byRegion(code).flatMap(_.ingredientIds)
      slots.count(universe.byId(_).category == "Dairy").toDouble / slots.size
    }
    assert(dairyShare("FRA") > 1.5 * dairyShare("MEX"),
           f"FRA=${dairyShare("FRA")}%.3f MEX=${dairyShare("MEX")}%.3f")
  }

  test("scaled generation shrinks recipe counts but keeps minimums") {
    val small = CuisineGen.generateRegion(universe, Regions.byCode("KOR"), scale = 0.03)
    assert(small.size == 30) // max(30, 301*0.03)
    val ita = CuisineGen.generateRegion(universe, Regions.byCode("ITA"), scale = 0.03)
    assert(ita.size == math.round(7504 * 0.03).toInt)
  }

  test("scaled generation still covers its pool exactly") {
    val spec = Regions.byCode("GRC")
    val small = CuisineGen.generateRegion(universe, spec, scale = 0.05)
    val unique = small.flatMap(_.ingredientIds).distinct.size
    assert(unique == CuisineGen.scaledPool(spec, 0.05))
  }

  test("recipe ids encode the region block") {
    val idx = Regions.generated.indexWhere(_.code == "ITA")
    assert(byRegion("ITA").forall(r => r.recipeId / 1000000L == idx))
  }
}
