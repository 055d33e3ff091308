(* The result line every run ends with, built with [Serve.Json]. *)

module J = Serve.Json

let metric value unit = J.Obj [ ("value", J.num_of value); ("unit", J.Str unit) ]

let result ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ("metrics", J.Obj metrics);
    ]
